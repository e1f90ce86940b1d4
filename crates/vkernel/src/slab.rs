//! Id-keyed slabs of independently lockable kernel objects, the
//! [`Handle`] their users hold, and the `Paged` side table for state
//! indexed by the same kind of id.
//!
//! A pipe, socket or epoll instance has its own [`Tracked`] lock and is
//! reached by *handle*: whoever uses one — an open file description, a
//! connected peer, a listener's pending queue, the address registry, the
//! ready hub — keeps the object itself ([`Handle`], or a [`WeakHandle`]
//! where a strong one would close a cycle), the way Linux's `struct
//! file` keeps `private_data`. No per-call path looks an id up.
//!
//! The [`ObjSlab`] is what gives an object its id, and the id is what
//! the rest of the model is keyed by: it names the object's wait
//! channels, first-free reuse of it keeps single-worker runs
//! bit-deterministic (exactly the old `Vec<Option<T>>` tables), and the
//! live slots are what `leak_audit` counts. With no lookup left on any
//! call's path, the table needs no lock of its own.

use std::sync::{Arc, Weak};

use crate::lockorder::{LockClass, Tracked};

/// A kernel object as its users hold it: the object, and the slab id
/// it was given (see the module documentation for what the id is for).
/// A handle that outlives its slot — an in-flight call, a peer link read
/// just before the close — still reaches the object it was made for,
/// never the slot's next owner.
pub struct Handle<T> {
    /// The slab id.
    pub id: usize,
    obj: Arc<Tracked<T>>,
}

impl<T> Handle<T> {
    /// A handle that does not keep the object alive.
    pub fn downgrade(&self) -> WeakHandle<T> {
        WeakHandle {
            id: self.id,
            obj: Arc::downgrade(&self.obj),
        }
    }
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Handle<T> {
        Handle {
            id: self.id,
            obj: self.obj.clone(),
        }
    }
}

impl<T> std::ops::Deref for Handle<T> {
    type Target = Tracked<T>;
    fn deref(&self) -> &Tracked<T> {
        &self.obj
    }
}

/// Same object (not merely the same id).
impl<T> PartialEq for Handle<T> {
    fn eq(&self, other: &Handle<T>) -> bool {
        Arc::ptr_eq(&self.obj, &other.obj)
    }
}

// The id only: printing the object would lock it, and two connected
// sockets print each other.
impl<T> std::fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Handle({})", self.id)
    }
}

/// A [`Handle`] that does not keep its object alive: a connected
/// socket's link to its peer (two strong links would be a cycle).
pub struct WeakHandle<T> {
    /// The slab id.
    pub id: usize,
    obj: Weak<Tracked<T>>,
}

impl<T> WeakHandle<T> {
    /// The object, unless every strong handle is gone.
    pub fn upgrade(&self) -> Option<Handle<T>> {
        let obj = self.obj.upgrade()?;
        Some(Handle { id: self.id, obj })
    }
}

impl<T> Clone for WeakHandle<T> {
    fn clone(&self) -> WeakHandle<T> {
        WeakHandle {
            id: self.id,
            obj: self.obj.clone(),
        }
    }
}

impl<T> PartialEq for WeakHandle<T> {
    fn eq(&self, other: &WeakHandle<T>) -> bool {
        Weak::ptr_eq(&self.obj, &other.obj)
    }
}

impl<T> std::fmt::Debug for WeakHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WeakHandle({})", self.id)
    }
}

/// The table that gives per-object-locked values their ids. Owned by
/// the kernel core, hence unlocked: insert, free and the audits all run
/// under the kernel lock, and nothing else comes here.
#[derive(Debug)]
pub struct ObjSlab<T> {
    slots: Vec<Option<Handle<T>>>,
    /// Class of the element locks.
    class: LockClass,
}

impl<T> ObjSlab<T> {
    /// An empty slab whose elements lock with `class`.
    pub fn new(class: LockClass) -> ObjSlab<T> {
        ObjSlab {
            slots: Vec::new(),
            class,
        }
    }

    /// Inserts `value`, reusing the first free slot (old `Vec<Option>`
    /// semantics), and returns its handle.
    pub fn insert(&mut self, value: T) -> Handle<T> {
        let free = self.slots.iter().position(Option::is_none);
        let id = free.unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let obj = Arc::new(Tracked::new(self.class, value));
        let handle = Handle { id, obj };
        self.slots[id] = Some(handle.clone());
        handle
    }

    /// The object in slot `id`, if live — for paths that start from an
    /// id (audits, tests); calls reach objects by handle.
    pub fn get(&self, id: usize) -> Option<&Handle<T>> {
        self.slots.get(id)?.as_ref()
    }

    /// Frees slot `id`; the object lives on while handles to it do.
    pub fn free(&mut self, id: usize) {
        if let Some(slot) = self.slots.get_mut(id) {
            *slot = None;
        }
    }

    /// Number of live slots (leak audits).
    pub fn live(&self) -> usize {
        self.slots.iter().flatten().count()
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
        let mut slab: ObjSlab<u32> = ObjSlab::new(LockClass::Object);
        assert_eq!(slab.insert(10).id, 0);
        assert_eq!(slab.insert(11).id, 1);
        assert_eq!(slab.insert(12).id, 2);
        slab.free(1);
        assert_eq!(slab.insert(13).id, 1, "first free slot wins");
        assert_eq!(slab.live(), 3);
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
        let mut slab: ObjSlab<String> = ObjSlab::new(LockClass::Object);
        let handle = slab.insert("alive".into());
        let weak = handle.downgrade();
        slab.free(handle.id);
        assert!(slab.get(handle.id).is_none());
        // The slot's next owner is another object under the same id.
        let next = slab.insert("next".into());
        assert_eq!(next.id, handle.id);
        assert!(next != handle && weak.upgrade().as_ref() == Some(&handle));
        assert_eq!(*handle.lock_ok(), "alive");
        drop(handle);
        assert!(weak.upgrade().is_none());
    }
}
