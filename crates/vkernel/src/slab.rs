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

#[cfg(test)]
thread_local! {
    /// Pages this thread's tables have allocated (tests: a steady state
    /// makes none).
    pub(crate) static PAGES_MADE: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[derive(Debug)]
struct Page<T> {
    live: usize,
    slots: [Option<T>; PAGE],
}

impl<T> Default for Page<T> {
    fn default() -> Page<T> {
        Page {
            live: 0,
            slots: std::array::from_fn(|_| None),
        }
    }
}

/// A table indexed by ids that are dense but never retire on their own
/// (slab slots recycle, tids only grow): pages of [`PAGE`] entries, a
/// page given up with its last entry. The table keeps the page it
/// emptied last for the next one it needs: an entry that comes and goes
/// alone on its page — the one pipe of a shell job, the one tid that
/// dies per request — makes and clears a page once, not once per
/// request, and a table whose ids only grow still holds pages for live
/// entries only (plus that one).
#[derive(Debug)]
pub(crate) struct Paged<T> {
    pages: Vec<Option<Box<Page<T>>>>,
    /// The page emptied last: all `None`, ready for reuse.
    spare: Option<Box<Page<T>>>,
}

impl<T> Default for Paged<T> {
    fn default() -> Paged<T> {
        Paged {
            pages: Vec::new(),
            spare: None,
        }
    }
}

impl<T> Paged<T> {
    pub(crate) fn get(&self, id: usize) -> Option<&T> {
        self.pages.get(id / PAGE)?.as_ref()?.slots[id % PAGE].as_ref()
    }

    pub(crate) fn get_mut(&mut self, id: usize) -> Option<&mut T> {
        self.pages.get_mut(id / PAGE)?.as_mut()?.slots[id % PAGE].as_mut()
    }

    /// The slot of `id`, on a page made (or taken from the spare) if the
    /// table has none there.
    fn slot_mut(&mut self, id: usize) -> (&mut usize, &mut Option<T>) {
        if id / PAGE >= self.pages.len() {
            self.pages.resize_with(id / PAGE + 1, || None);
        }
        let spare = &mut self.spare;
        let page = self.pages[id / PAGE].get_or_insert_with(|| {
            spare.take().unwrap_or_else(|| {
                #[cfg(test)]
                PAGES_MADE.with(|n| n.set(n.get() + 1));
                Box::default()
            })
        });
        (&mut page.live, &mut page.slots[id % PAGE])
    }

    /// The entry of `id`, made if absent.
    pub(crate) fn slot(&mut self, id: usize) -> &mut T
    where
        T: Default,
    {
        let (live, slot) = self.slot_mut(id);
        if slot.is_none() {
            *live += 1;
        }
        slot.get_or_insert_with(T::default)
    }

    /// Puts `value` at `id`, returning what was there.
    pub(crate) fn insert(&mut self, id: usize, value: T) -> Option<T> {
        let (live, slot) = self.slot_mut(id);
        let old = slot.replace(value);
        if old.is_none() {
            *live += 1;
        }
        old
    }

    /// Takes the entry of `id` out; the page that leaves empty becomes
    /// the spare.
    pub(crate) fn remove(&mut self, id: usize) -> Option<T> {
        let at = self.pages.get_mut(id / PAGE)?;
        let page = at.as_mut()?;
        let gone = page.slots[id % PAGE].take()?;
        page.live -= 1;
        if page.live == 0 {
            self.spare = at.take();
            while let Some(None) = self.pages.last() {
                self.pages.pop();
            }
        }
        Some(gone)
    }

    /// The entries present, by ascending id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        let pages = self.pages.iter().enumerate();
        pages.flat_map(|(p, page)| {
            let slots = page.iter().flat_map(|page| page.slots.iter().enumerate());
            slots.filter_map(move |(i, s)| Some((p * PAGE + i, s.as_ref()?)))
        })
    }

    /// The entries present, by ascending id.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, t)| t)
    }

    /// Pages currently allocated, the spare included (tests: a steady
    /// state makes none).
    #[cfg(test)]
    pub(crate) fn pages_held(&self) -> usize {
        self.pages.iter().flatten().count() + usize::from(self.spare.is_some())
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
        // Removing the last entry of the last page shrinks the table;
        // removing what is not there is a no-op.
        assert_eq!(t.remove(70), Some(vec![7, 8]));
        assert_eq!(t.remove(70), None);
        assert_eq!(t.remove(9999), None);
        assert_eq!(t.pages.len(), 1);
        assert_eq!(t.insert(4, vec![4]), None);
        assert_eq!(t.insert(4, vec![5]), Some(vec![4]));
        t.remove(3);
        t.remove(4);
        assert!(t.pages.is_empty());
    }

    #[test]
    fn an_emptied_page_is_kept_for_the_next_entry() {
        let mut t: Paged<u32> = Paged::default();
        t.insert(1, 1);
        // One entry alone on its page, coming and going — on the same
        // page or, like a tid, on ever later ones: one page serves.
        for id in (40..4000).step_by(7) {
            t.insert(id, 7);
            assert_eq!(t.pages_held(), 2, "at {id}");
            assert_eq!(t.remove(id), Some(7));
            assert_eq!(t.pages_held(), 2, "the emptied page is the spare");
        }
        // Only one is kept: a second emptied page replaces it.
        t.insert(100, 0);
        t.insert(200, 0);
        assert_eq!(t.pages_held(), 3);
        t.remove(100);
        t.remove(200);
        assert_eq!(t.pages_held(), 2);
        assert_eq!(t.values().copied().collect::<Vec<_>>(), [1]);
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
