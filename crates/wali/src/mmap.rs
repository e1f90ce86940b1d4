//! Sandboxed memory-mapping inside linear memory (§3.2).
//!
//! All mappings live in a pool region of the module's own linear memory,
//! above the application's static data and `brk` heap. The implementation
//! follows the paper's design: a single base-pointer bookkeeping variable
//! plus a region map, `MAP_FIXED`-style placement when growing memory, and
//! refusal of `PROT_EXEC` (mappings can never become code, §3.6 pitfall 2).

use std::collections::BTreeMap;

use wali_abi::flags::{MAP_ANONYMOUS, MAP_SHARED, MREMAP_MAYMOVE, PROT_EXEC};
use wali_abi::Errno;

/// Mapping granularity: one Wasm page would be wasteful for small maps, so
/// WALI maps at 4 KiB granularity like the kernel.
pub const MAP_PAGE: u32 = 4096;

/// A live mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Region {
    /// Base address in linear memory.
    pub addr: u32,
    /// Length in bytes (page-rounded).
    pub len: u32,
    /// `PROT_*` bits (advisory; enforcement is the sandbox itself).
    pub prot: i32,
    /// `MAP_*` bits.
    pub flags: i32,
    /// Backing file `(fd, offset)` for file mappings.
    pub file: Option<(i32, u64)>,
}

impl Region {
    /// True for `MAP_SHARED` file mappings (written back on msync/munmap).
    pub fn is_shared_file(&self) -> bool {
        self.file.is_some() && self.flags & MAP_SHARED != 0
    }
}

/// The allocation pool for one address space.
#[derive(Clone, Debug)]
pub struct MmapPool {
    /// Pool base: the single bookkeeping variable of the paper's design.
    base: u32,
    /// Next never-allocated address (grows upward).
    high_water: u32,
    /// Live regions keyed by base address.
    regions: BTreeMap<u32, Region>,
}

impl MmapPool {
    /// Creates a pool starting at `base` (rounded up to a map page).
    pub fn new(base: u32) -> MmapPool {
        let base = round_up(base).expect("the pool starts below the last map page");
        MmapPool {
            base,
            high_water: base,
            regions: BTreeMap::new(),
        }
    }

    /// Pool base address.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// One past the highest byte ever mapped (memory growth target).
    pub fn high_water(&self) -> u32 {
        self.high_water
    }

    /// Total currently mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.regions.values().map(|r| r.len as u64).sum()
    }

    /// Number of live regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Iterates live regions in address order.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.values()
    }

    /// `mmap`: allocates `len` bytes; returns the chosen address.
    ///
    /// `PROT_EXEC` is refused outright: Wasm linear memory is never
    /// executable, making code-injection via mapping impossible.
    pub fn map(
        &mut self,
        len: u32,
        prot: i32,
        flags: i32,
        file: Option<(i32, u64)>,
    ) -> Result<Region, Errno> {
        if len == 0 {
            return Err(Errno::Einval);
        }
        if prot & PROT_EXEC != 0 {
            return Err(Errno::Eacces);
        }
        if flags & MAP_ANONYMOUS != 0 && file.is_some() {
            return Err(Errno::Einval);
        }
        let len = round_up(len).ok_or(Errno::Enomem)?;
        let addr = self.find_gap(len).ok_or(Errno::Enomem)?;
        let region = Region {
            addr,
            len,
            prot,
            flags,
            file,
        };
        self.regions.insert(addr, region.clone());
        self.high_water = self.high_water.max(addr + len);
        Ok(region)
    }

    /// First-fit search: reuse a gap between live regions, else extend.
    fn find_gap(&self, len: u32) -> Option<u32> {
        let mut cursor = self.base;
        for r in self.regions.values() {
            if r.addr
                .checked_sub(cursor)
                .map(|gap| gap >= len)
                .unwrap_or(false)
            {
                return Some(cursor);
            }
            cursor = r.addr + r.len;
        }
        cursor.checked_add(len).map(|_| cursor)
    }

    /// Looks up the region containing `addr`.
    pub fn region_at(&self, addr: u32) -> Option<&Region> {
        self.regions
            .range(..=addr)
            .next_back()
            .filter(|(_, r)| addr < r.addr + r.len)
            .map(|(_, r)| r)
    }

    /// `munmap`: removes `[addr, addr+len)`; supports exact regions and
    /// prefix/suffix/interior splits like the kernel.
    pub fn unmap(&mut self, addr: u32, len: u32) -> Result<Vec<Region>, Errno> {
        if !addr.is_multiple_of(MAP_PAGE) || len == 0 {
            return Err(Errno::Einval);
        }
        let len = round_up(len).ok_or(Errno::Einval)?;
        let end = addr.checked_add(len).ok_or(Errno::Einval)?;
        let overlapping: Vec<u32> = self
            .regions
            .values()
            .filter(|r| r.addr < end && addr < r.addr + r.len)
            .map(|r| r.addr)
            .collect();
        let mut removed = Vec::new();
        for base in overlapping {
            let r = self.regions.remove(&base).expect("listed above");
            let r_end = r.addr + r.len;
            // Keep the prefix before the hole.
            if r.addr < addr {
                let mut left = r.clone();
                left.len = addr - r.addr;
                self.regions.insert(left.addr, left);
            }
            // Keep the suffix after the hole.
            if r_end > end {
                let mut right = r.clone();
                right.addr = end;
                right.len = r_end - end;
                if let Some((fd, off)) = right.file {
                    right.file = Some((fd, off + (end - r.addr) as u64));
                }
                self.regions.insert(right.addr, right);
            }
            // The removed middle (for shared-file write-back).
            let cut_start = r.addr.max(addr);
            let cut_end = r_end.min(end);
            let mut cut = r.clone();
            cut.addr = cut_start;
            cut.len = cut_end - cut_start;
            if let Some((fd, off)) = cut.file {
                cut.file = Some((fd, off + (cut_start - r.addr) as u64));
            }
            removed.push(cut);
        }
        Ok(removed)
    }

    /// `mremap`: grows or shrinks a region, moving it if allowed.
    ///
    /// Returns `(old_region, new_region)`; the caller copies bytes when the
    /// address changed.
    pub fn remap(
        &mut self,
        old_addr: u32,
        old_len: u32,
        new_len: u32,
        flags: i32,
    ) -> Result<(Region, Region), Errno> {
        let old_len = round_up(old_len.max(1)).ok_or(Errno::Einval)?;
        let new_len = round_up(new_len.max(1)).ok_or(Errno::Einval)?;
        let region = self.regions.get(&old_addr).cloned().ok_or(Errno::Efault)?;
        if region.len != old_len {
            return Err(Errno::Einval);
        }
        if new_len <= old_len {
            // Shrink in place.
            let r = self.regions.get_mut(&old_addr).expect("exists");
            r.len = new_len;
            let new = r.clone();
            return Ok((region, new));
        }
        // Try to extend in place.
        let end = old_addr + old_len;
        let extension_free = end
            .checked_add(new_len - old_len)
            .is_some_and(|new_end| self.regions.range(end..new_end).next().is_none());
        if extension_free {
            let r = self.regions.get_mut(&old_addr).expect("exists");
            r.len = new_len;
            let new = r.clone();
            self.high_water = self.high_water.max(old_addr + new_len);
            return Ok((region, new));
        }
        if flags & MREMAP_MAYMOVE == 0 {
            return Err(Errno::Enomem);
        }
        // Move: allocate a new region with the same attributes.
        self.regions.remove(&old_addr);
        let new = self.map(new_len, region.prot, region.flags, region.file)?;
        Ok((region, new))
    }

    /// `mprotect`: updates protection bits on the region at `addr`.
    pub fn protect(&mut self, addr: u32, len: u32, prot: i32) -> Result<(), Errno> {
        if prot & PROT_EXEC != 0 {
            return Err(Errno::Eacces);
        }
        let len = round_up(len.max(1)).ok_or(Errno::Enomem)?;
        let end = addr.checked_add(len).ok_or(Errno::Enomem)?;
        let any = self
            .regions
            .values_mut()
            .filter(|r| r.addr < end && addr < r.addr + r.len)
            .map(|r| r.prot = prot)
            .count();
        if any == 0 {
            return Err(Errno::Enomem);
        }
        Ok(())
    }
}

/// `v` rounded up to a map page; `None` past the last one (a guest picks
/// the lengths).
fn round_up(v: u32) -> Option<u32> {
    v.checked_next_multiple_of(MAP_PAGE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wali_abi::flags::{MAP_PRIVATE, PROT_READ, PROT_WRITE};

    const RW: i32 = PROT_READ | PROT_WRITE;

    fn pool() -> MmapPool {
        MmapPool::new(0x10000)
    }

    #[test]
    fn map_allocates_disjoint_page_rounded() {
        let mut p = pool();
        let a = p.map(100, RW, MAP_PRIVATE | MAP_ANONYMOUS, None).unwrap();
        let b = p.map(5000, RW, MAP_PRIVATE | MAP_ANONYMOUS, None).unwrap();
        assert_eq!(a.len, MAP_PAGE);
        assert_eq!(b.len, 2 * MAP_PAGE);
        assert!(a.addr + a.len <= b.addr);
        assert_eq!(p.mapped_bytes(), 3 * MAP_PAGE as u64);
    }

    #[test]
    fn prot_exec_is_refused() {
        let mut p = pool();
        assert_eq!(
            p.map(
                4096,
                PROT_READ | PROT_EXEC,
                MAP_PRIVATE | MAP_ANONYMOUS,
                None
            ),
            Err(Errno::Eacces)
        );
        let r = p.map(4096, RW, MAP_PRIVATE | MAP_ANONYMOUS, None).unwrap();
        assert_eq!(p.protect(r.addr, r.len, PROT_EXEC), Err(Errno::Eacces));
    }

    #[test]
    fn unmap_reuses_gap() {
        let mut p = pool();
        let a = p.map(4096, RW, MAP_PRIVATE | MAP_ANONYMOUS, None).unwrap();
        let _b = p.map(4096, RW, MAP_PRIVATE | MAP_ANONYMOUS, None).unwrap();
        p.unmap(a.addr, a.len).unwrap();
        let c = p.map(4096, RW, MAP_PRIVATE | MAP_ANONYMOUS, None).unwrap();
        assert_eq!(c.addr, a.addr, "first-fit reuses the gap");
    }

    #[test]
    fn unmap_splits_regions() {
        let mut p = pool();
        let r = p
            .map(4 * MAP_PAGE, RW, MAP_PRIVATE | MAP_ANONYMOUS, None)
            .unwrap();
        // Punch a hole in the middle.
        let removed = p.unmap(r.addr + MAP_PAGE, MAP_PAGE).unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].addr, r.addr + MAP_PAGE);
        assert_eq!(p.region_count(), 2);
        assert!(p.region_at(r.addr).is_some());
        assert!(p.region_at(r.addr + MAP_PAGE).is_none());
        assert!(p.region_at(r.addr + 2 * MAP_PAGE).is_some());
    }

    #[test]
    fn unmap_unaligned_is_einval() {
        let mut p = pool();
        assert_eq!(p.unmap(0x10001, 4096), Err(Errno::Einval));
        assert_eq!(p.unmap(0x10000, 0), Err(Errno::Einval));
    }

    #[test]
    fn remap_grows_in_place_when_free() {
        let mut p = pool();
        let r = p
            .map(MAP_PAGE, RW, MAP_PRIVATE | MAP_ANONYMOUS, None)
            .unwrap();
        let (_, grown) = p.remap(r.addr, r.len, 3 * MAP_PAGE, 0).unwrap();
        assert_eq!(grown.addr, r.addr);
        assert_eq!(grown.len, 3 * MAP_PAGE);
    }

    #[test]
    fn remap_moves_when_blocked() {
        let mut p = pool();
        let a = p
            .map(MAP_PAGE, RW, MAP_PRIVATE | MAP_ANONYMOUS, None)
            .unwrap();
        let _b = p
            .map(MAP_PAGE, RW, MAP_PRIVATE | MAP_ANONYMOUS, None)
            .unwrap();
        // Cannot extend a in place; without MAYMOVE it fails.
        assert_eq!(p.remap(a.addr, a.len, 2 * MAP_PAGE, 0), Err(Errno::Enomem));
        let (_, moved) = p
            .remap(a.addr, a.len, 2 * MAP_PAGE, MREMAP_MAYMOVE)
            .unwrap();
        assert_ne!(moved.addr, a.addr);
        assert_eq!(moved.len, 2 * MAP_PAGE);
    }

    #[test]
    fn remap_shrinks_in_place() {
        let mut p = pool();
        let r = p
            .map(3 * MAP_PAGE, RW, MAP_PRIVATE | MAP_ANONYMOUS, None)
            .unwrap();
        let (_, small) = p.remap(r.addr, r.len, MAP_PAGE, 0).unwrap();
        assert_eq!(small.addr, r.addr);
        assert_eq!(small.len, MAP_PAGE);
    }

    #[test]
    fn file_mapping_offset_tracks_splits() {
        let mut p = pool();
        let r = p.map(2 * MAP_PAGE, RW, MAP_SHARED, Some((5, 0))).unwrap();
        let removed = p.unmap(r.addr + MAP_PAGE, MAP_PAGE).unwrap();
        assert_eq!(removed[0].file, Some((5, MAP_PAGE as u64)));
        assert!(removed[0].is_shared_file());
    }

    #[cfg(feature = "proptest")]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
        #[test]
        fn prop_regions_never_overlap(ops in proptest::collection::vec((1u32..20000, any::<bool>()), 1..40)) {
            let mut p = pool();
            let mut live: Vec<Region> = Vec::new();
            for (len, unmap_one) in ops {
                if unmap_one && !live.is_empty() {
                    let r = live.swap_remove(len as usize % live.len());
                    p.unmap(r.addr, r.len).unwrap();
                } else if let Ok(r) = p.map(len, RW, MAP_PRIVATE | MAP_ANONYMOUS, None) {
                    live.push(r);
                }
                // Invariant: all pool regions pairwise disjoint and above base.
                let regions: Vec<&Region> = p.regions().collect();
                for (i, a) in regions.iter().enumerate() {
                    prop_assert!(a.addr >= p.base());
                    for b in regions.iter().skip(i + 1) {
                        let disjoint = a.addr + a.len <= b.addr || b.addr + b.len <= a.addr;
                        prop_assert!(disjoint, "{a:?} overlaps {b:?}");
                    }
                }
            }
        }
        }
    }
}
