//! Id-keyed slabs of independently lockable kernel objects, and the
//! `Paged` side table for state indexed by the same kind of id.
//!
//! Pipes, sockets and epoll instances used to live in `Vec<Option<T>>`
//! fields of the kernel, reachable only under the big kernel lock. An
//! [`ObjSlab`] gives each object its own [`Tracked`] lock and makes the
//! id → object lookup a cloneable handle, so the embedder's uncontended
//! fast path can reach a pipe or socket without taking the kernel lock
//! at all.
//!
//! The slot table itself hides behind an `RwLock`: lookups (the hot
//! path, including concurrent lookups from several workers) take the
//! read side and never contend with each other; only allocation and
//! teardown take the write side. Slot ids are reused exactly like the
//! old `Vec<Option<T>>` (first free slot), which keeps single-worker
//! runs bit-deterministic.

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::lockorder::{note_contention, LockClass, OrderToken, Tracked};

/// One slab slot: the object behind its own [`Tracked`] lock.
type Slot<T> = Option<Arc<Tracked<T>>>;

/// A shared slab of per-object-locked values.
#[derive(Debug)]
pub struct ObjSlab<T> {
    slots: Arc<RwLock<Vec<Slot<T>>>>,
    /// Class of the *element* locks ([`LockClass::Slab`] guards the
    /// table itself).
    class: LockClass,
}

impl<T> Clone for ObjSlab<T> {
    fn clone(&self) -> ObjSlab<T> {
        ObjSlab {
            slots: self.slots.clone(),
            class: self.class,
        }
    }
}

impl<T> ObjSlab<T> {
    /// An empty slab whose elements lock with `class`.
    pub fn new(class: LockClass) -> ObjSlab<T> {
        ObjSlab {
            slots: Arc::new(RwLock::new(Vec::new())),
            class,
        }
    }

    fn read_table(&self) -> (RwLockReadGuard<'_, Vec<Slot<T>>>, OrderToken) {
        let token = OrderToken::enter(LockClass::Slab);
        let guard = match self.slots.try_read() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                note_contention(LockClass::Slab);
                self.slots.read().unwrap_or_else(|p| p.into_inner())
            }
        };
        (guard, token)
    }

    fn write_table(&self) -> (RwLockWriteGuard<'_, Vec<Slot<T>>>, OrderToken) {
        let token = OrderToken::enter(LockClass::Slab);
        let guard = match self.slots.try_write() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                note_contention(LockClass::Slab);
                self.slots.write().unwrap_or_else(|p| p.into_inner())
            }
        };
        (guard, token)
    }

    /// Inserts `value`, reusing the first free slot (old `Vec<Option>`
    /// semantics), and returns its id.
    pub fn insert(&self, value: T) -> usize {
        let obj = Arc::new(Tracked::new(self.class, value));
        let (mut slots, _token) = self.write_table();
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(obj);
                return i;
            }
        }
        slots.push(Some(obj));
        slots.len() - 1
    }

    /// The object in slot `id`, if live. The returned handle stays
    /// valid (and lockable) even if the slot is freed concurrently —
    /// exactly like an fd kept open across a close elsewhere.
    pub fn get(&self, id: usize) -> Option<Arc<Tracked<T>>> {
        let (slots, _token) = self.read_table();
        slots.get(id).and_then(|s| s.clone())
    }

    /// Frees slot `id`, returning the (possibly still shared) object.
    pub fn free(&self, id: usize) -> Option<Arc<Tracked<T>>> {
        let (mut slots, _token) = self.write_table();
        slots.get_mut(id).and_then(|s| s.take())
    }

    /// Number of live slots (leak audits).
    pub fn live(&self) -> usize {
        let (slots, _token) = self.read_table();
        slots.iter().filter(|s| s.is_some()).count()
    }

    /// Ids of the live slots, ascending (deterministic iteration).
    pub fn live_ids(&self) -> Vec<usize> {
        let (slots, _token) = self.read_table();
        slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect()
    }
}

/// Entries per [`Paged`] page.
const PAGE: usize = 32;

#[derive(Debug, Default)]
pub(crate) struct Page<T> {
    live: usize,
    slots: [Option<T>; PAGE],
}

/// A table indexed by ids that are dense but never retire on their own
/// (slab slots recycle, tids only grow): pages of [`PAGE`] entries, a
/// page freed with its last entry.
#[derive(Debug, Default)]
pub(crate) struct Paged<T> {
    pub(crate) pages: Vec<Option<Box<Page<T>>>>,
}

impl<T: Default> Paged<T> {
    pub(crate) fn get(&self, id: usize) -> Option<&T> {
        self.pages.get(id / PAGE)?.as_ref()?.slots[id % PAGE].as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: usize) -> Option<&mut T> {
        self.pages.get_mut(id / PAGE)?.as_mut()?.slots[id % PAGE].as_mut()
    }

    /// The entry of `id`, made if absent.
    pub(crate) fn slot(&mut self, id: usize) -> &mut T {
        if id / PAGE >= self.pages.len() {
            self.pages.resize_with(id / PAGE + 1, || None);
        }
        let page: &mut Page<T> = self.pages[id / PAGE].get_or_insert_with(Box::default);
        let slot = &mut page.slots[id % PAGE];
        if slot.is_none() {
            page.live += 1;
        }
        slot.get_or_insert_with(T::default)
    }

    /// Drops the entry of `id`, and its page with the last one.
    pub(crate) fn free(&mut self, id: usize) {
        let Some(Some(page)) = self.pages.get_mut(id / PAGE) else {
            return;
        };
        if page.slots[id % PAGE].take().is_some() {
            page.live -= 1;
            if page.live == 0 {
                self.pages[id / PAGE] = None;
                while let Some(None) = self.pages.last() {
                    self.pages.pop();
                }
            }
        }
    }

    /// The entries present, by ascending id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let pages = self.pages.iter().enumerate();
        pages.flat_map(|(p, page)| {
            let slots = page.iter().flat_map(|page| page.slots.iter().enumerate());
            slots.filter_map(move |(i, s)| Some((p * PAGE + i, s.as_ref()?)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_ids_are_reused_first_free() {
        let slab: ObjSlab<u32> = ObjSlab::new(LockClass::Object);
        assert_eq!(slab.insert(10), 0);
        assert_eq!(slab.insert(11), 1);
        assert_eq!(slab.insert(12), 2);
        slab.free(1);
        assert_eq!(slab.insert(13), 1, "first free slot wins");
        assert_eq!(slab.live(), 3);
        assert_eq!(slab.live_ids(), vec![0, 1, 2]);
    }

    #[test]
    fn paged_entries_come_and_go_with_their_pages() {
        let mut t: Paged<Vec<u8>> = Paged::default();
        assert!(t.get(70).is_none());
        t.slot(70).push(7);
        t.slot(3).push(3);
        t.slot(70).push(8);
        assert_eq!(t.get(70), Some(&vec![7, 8]));
        assert!(t.get(71).is_none() && t.get_mut(5000).is_none());
        assert_eq!(t.iter().map(|(id, _)| id).collect::<Vec<_>>(), [3, 70]);
        assert_eq!(t.pages.iter().flatten().count(), 2, "pages 0 and 2 only");
        // Freeing the last entry of the last page shrinks the table;
        // freeing what is not there is a no-op.
        t.free(70);
        t.free(70);
        t.free(9999);
        assert_eq!(t.pages.len(), 1);
        t.free(3);
        assert!(t.pages.is_empty());
    }

    #[test]
    fn handles_outlive_the_slot() {
        let slab: ObjSlab<String> = ObjSlab::new(LockClass::Object);
        let id = slab.insert("alive".into());
        let handle = slab.get(id).unwrap();
        slab.free(id);
        assert!(slab.get(id).is_none());
        assert_eq!(*handle.lock_ok(), "alive");
    }
}
