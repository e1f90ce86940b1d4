//! Kernel waitqueues: event-driven blocking.
//!
//! The original runner retried every blocked task on every scheduler pass
//! (O(blocked × passes)). The paper's server workloads (§6: memcached,
//! paho-mqtt) are readiness-driven, so blocked tasks now park on *wait
//! channels* and are woken by the exact state transition that unblocks
//! them:
//!
//! * a blocking syscall subscribes the calling task to the channel(s) it
//!   is waiting on, *then* returns [`crate::SysError::Block`];
//! * every kernel transition that can unblock a task (pipe write/close,
//!   socket send/accept, futex wake, `exit_group`, signal generation)
//!   posts a wakeup on the matching channel;
//! * the embedder drains [`WaitSet::drain_woken`] each scheduling round
//!   and re-queues only the woken tasks.
//!
//! Wakeups are **edge-triggered and may be spurious**: a woken task simply
//! retries its syscall (the classic retry convention, see `lib.rs`), and
//! re-subscribes if it blocks again. The invariant that matters is the
//! converse — a task never misses the transition it waits on — which holds
//! because the kernel is single-threaded and subscription happens before
//! the `Block` return reaches the scheduler.
//!
//! # Where the state lives
//!
//! Nothing on the post → wake → re-subscribe path hashes or allocates in
//! steady state. A channel's *wait head* (event generation + waiter
//! list) is indexed by the id the channel already carries — a slab id
//! or a tid, one paged table per kind; only `EventFd` (a pointer)
//! and `Futex` (an address) keep a map. A task's own subscription list
//! and flags sit in its *wait record*, indexed by tid. Heads and records
//! die with their owner ([`WaitSet::release`], [`WaitSet::release_task`]),
//! so a fork-per-request guest holds state for live objects only.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::kernel::epoll::Epoll;
use crate::kernel::ChanSet;
use crate::lockorder::{LockClass, Tracked, TrackedGuard};
use crate::slab::{Handle, Paged};
use crate::sync::FastMap;
use crate::{MmId, Pid, Tid};

/// A wait channel: the kernel-side event a blocked task parks on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Pipe `id` may have become readable (data written or writers gone).
    PipeReadable(usize),
    /// Pipe `id` may have become writable (space freed or readers gone).
    PipeWritable(usize),
    /// Socket `id` may have become readable: stream bytes or a datagram
    /// arrived, a pending connection was queued on a listener, or the
    /// peer vanished (EOF is a readable condition).
    SockReadable(usize),
    /// Space may have opened in socket `id`'s receive buffer (the channel
    /// a *peer's* blocked sender waits on), or the connection broke.
    SockSpace(usize),
    /// The eventfd description at this address became signalled. Keyed by
    /// the `Arc` pointer of the open file description (stable for the
    /// description's lifetime; never dereferenced).
    EventFd(usize),
    /// A `FUTEX_WAKE` may have hit this `(address-space, address)` word.
    Futex(MmId, u32),
    /// A child of process `pid` changed state (`wait4` wake-up).
    Child(Pid),
    /// A signal was generated for task `tid` (EINTR / `pause` wake-up).
    Signal(Tid),
    /// Epoll instance `id`'s ready ring received at least one entry: a
    /// parked `epoll_wait` waiter can pop it. Posted
    /// by the ready-hub router whenever a readiness transition pushes
    /// a registration onto the ring (and by `epoll_ctl` when a freshly
    /// added fd is already ready).
    EpollReady(usize),
}

/// Channel kinds that carry a table index, in [`Channel::dense`] order.
const DENSE: [fn(usize) -> Channel; 7] = [
    Channel::PipeReadable,
    Channel::PipeWritable,
    Channel::SockReadable,
    Channel::SockSpace,
    Channel::EpollReady,
    |pid| Channel::Child(pid as Pid),
    |tid| Channel::Signal(tid as Tid),
];

impl Channel {
    /// `(kind, index)` of a channel named after a slab slot or a task.
    fn dense(self) -> Option<(usize, usize)> {
        Some(match self {
            Channel::PipeReadable(id) => (0, id),
            Channel::PipeWritable(id) => (1, id),
            Channel::SockReadable(id) => (2, id),
            Channel::SockSpace(id) => (3, id),
            Channel::EpollReady(id) => (4, id),
            Channel::Child(pid) => (5, usize::try_from(pid).ok()?),
            Channel::Signal(tid) => (6, usize::try_from(tid).ok()?),
            Channel::EventFd(_) | Channel::Futex(..) => return None,
        })
    }
}

/// Per-channel storage: a [`Paged`] table per indexed kind, a cheaply
/// hashed map for the two kinds keyed by an address.
#[derive(Debug, Default)]
struct ChanTable<T> {
    dense: [Paged<T>; DENSE.len()],
    sparse: FastMap<Channel, T>,
}

impl<T: Default> ChanTable<T> {
    fn get(&self, ch: Channel) -> Option<&T> {
        match ch.dense() {
            Some((kind, id)) => self.dense[kind].get(id),
            None => self.sparse.get(&ch),
        }
    }

    fn get_mut(&mut self, ch: Channel) -> Option<&mut T> {
        match ch.dense() {
            Some((kind, id)) => self.dense[kind].get_mut(id),
            None => self.sparse.get_mut(&ch),
        }
    }

    /// The entry of `ch`, made if absent.
    fn slot(&mut self, ch: Channel) -> &mut T {
        match ch.dense() {
            Some((kind, id)) => self.dense[kind].slot(id),
            None => self.sparse.entry(ch).or_default(),
        }
    }

    fn free(&mut self, ch: Channel) {
        match ch.dense() {
            Some((kind, id)) => drop(self.dense[kind].remove(id)),
            None => drop(self.sparse.remove(&ch)),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (Channel, &T)> {
        let dense = self.dense.iter().zip(DENSE);
        dense
            .flat_map(|(table, kind)| table.iter().map(move |(id, t)| (kind(id), t)))
            .chain(self.sparse.iter().map(|(ch, t)| (*ch, t)))
    }
}

/// Aggregate counters (observability + bench assertions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Channel subscriptions recorded.
    pub subscribes: u64,
    /// Posts that found at least one waiter.
    pub posts_hit: u64,
    /// Posts on channels nobody was waiting on (dropped, near-free).
    pub posts_miss: u64,
    /// Tasks moved to the woken list (by post or direct wake).
    pub wakeups: u64,
}

/// A channel's wait head.
#[derive(Debug, Default)]
struct Head {
    /// Posts since the owner was created (hit or miss): the event
    /// generation. Edge-triggered epoll re-arms a registration when the
    /// generation of any of its channels moved — i.e. when a new
    /// transition happened since the last report, which is Linux's ET
    /// re-arm condition (new data re-notifies even while still ready).
    gen: u64,
    /// Subscribed tasks, in subscription order.
    waiters: Vec<Tid>,
}

/// One task's wait record.
#[derive(Debug, Default)]
struct TaskRec {
    /// On the woken list, not yet drained (the dedup flag).
    woken: bool,
    /// Channels this task is subscribed to.
    subs: Vec<Channel>,
    /// While armed ([`WaitSet::track_fired`]): the channels whose posts
    /// woke it since its last [`WaitSet::take_fired`] drain, in fire
    /// order. Only batched-syscall parks need the record, so only they
    /// pay the per-wake bookkeeping.
    fired: Option<Vec<Channel>>,
}

/// The kernel's waitqueue table.
#[derive(Debug, Default)]
pub struct WaitSet {
    heads: ChanTable<Head>,
    /// Wait records by tid.
    tasks: Paged<TaskRec>,
    /// Woken tasks in wake order, deduplicated by [`TaskRec::woken`].
    woken: Vec<Tid>,
    /// Lock-free mirror of `!woken.is_empty()`: SMP workers poll this
    /// between slices without taking the kernel lock (the authoritative
    /// drain still happens under it, via [`WaitSet::drain_woken`]).
    woken_hint: Arc<AtomicBool>,
    /// Counters.
    pub stats: WaitStats,
}

impl WaitSet {
    /// Creates an empty waitqueue table.
    pub fn new() -> WaitSet {
        WaitSet::default()
    }

    fn rec_mut(&mut self, tid: Tid) -> Option<&mut TaskRec> {
        self.tasks.get_mut(usize::try_from(tid).ok()?)
    }

    /// Subscribes `tid` to `ch`. Idempotent per `(tid, ch)` pair.
    pub fn subscribe(&mut self, tid: Tid, ch: Channel) {
        let Ok(t) = usize::try_from(tid) else { return };
        let rec = self.tasks.slot(t);
        if rec.subs.contains(&ch) {
            return;
        }
        rec.subs.push(ch);
        self.heads.slot(ch).waiters.push(tid);
        self.stats.subscribes += 1;
    }

    /// Posts a wakeup on `ch`: every subscriber moves to the woken list
    /// and is unsubscribed from *all* its channels (a woken task either
    /// completes or re-subscribes on its retry). With nobody waiting it
    /// is an indexed load and a generation bump.
    pub fn post(&mut self, ch: Channel) -> usize {
        // A futex word has no owner to release its head: it exists only
        // while someone waits.
        let futex = matches!(ch, Channel::Futex(..));
        let head = match futex {
            true => self.heads.get_mut(ch),
            false => Some(self.heads.slot(ch)),
        };
        let mut tids = head.map_or_else(Vec::new, |head| {
            head.gen += 1;
            std::mem::take(&mut head.waiters)
        });
        if tids.is_empty() {
            self.stats.posts_miss += 1;
            return 0;
        }
        self.stats.posts_hit += 1;
        for &tid in &tids {
            self.wake_inner(tid, Some(ch));
        }
        let n = tids.len();
        // Hand the list's allocation back to the (now empty) head.
        tids.clear();
        match self.heads.get_mut(ch) {
            Some(_) if futex => self.heads.free(ch),
            Some(head) => head.waiters = tids,
            None => {}
        }
        n
    }

    /// Wakes one task directly (futex wake, task termination).
    pub fn wake(&mut self, tid: Tid) {
        self.unsubscribe(tid);
        self.wake_inner(tid, None);
    }

    /// Drops every subscription of `tid` but `via` (whose waiter list
    /// the caller already emptied).
    fn unlink_all(&mut self, tid: Tid, via: Option<Channel>) {
        let Some(rec) = self.rec_mut(tid) else { return };
        let mut subs = std::mem::take(&mut rec.subs);
        for &ch in subs.iter().filter(|ch| Some(**ch) != via) {
            if let Some(head) = self.heads.get_mut(ch) {
                head.waiters.retain(|t| *t != tid);
                if head.waiters.is_empty() && matches!(ch, Channel::Futex(..)) {
                    self.heads.free(ch);
                }
            }
        }
        subs.clear();
        if let Some(rec) = self.rec_mut(tid) {
            rec.subs = subs;
        }
    }

    fn wake_inner(&mut self, tid: Tid, via: Option<Channel>) {
        self.unlink_all(tid, via);
        let Ok(t) = usize::try_from(tid) else { return };
        let rec = self.tasks.slot(t);
        if let (Some(ch), Some(log)) = (via, &mut rec.fired) {
            if !log.contains(&ch) {
                log.push(ch);
            }
        }
        if !rec.woken {
            rec.woken = true;
            self.woken.push(tid);
            self.woken_hint.store(true, Ordering::Release);
            self.stats.wakeups += 1;
        }
    }

    /// Arms fired-channel recording for `tid`'s next wakeups, until its
    /// next [`WaitSet::take_fired`] drain or unsubscription. Called by
    /// `wali_ring_enter` each time it parks; a wake that lands before
    /// the arm merely yields an empty record (submission-order retry),
    /// which callers already treat as "re-check everything".
    pub fn track_fired(&mut self, tid: Tid) {
        if let Ok(t) = usize::try_from(tid) {
            self.tasks.slot(t).fired.get_or_insert_with(Vec::new);
        }
    }

    /// Removes every subscription of `tid` without waking it (task exit).
    pub fn unsubscribe(&mut self, tid: Tid) {
        if let Some(rec) = self.rec_mut(tid) {
            rec.fired = None;
        }
        self.unlink_all(tid, None);
    }

    /// True when `tid` is subscribed to at least one channel.
    pub fn is_subscribed(&self, tid: Tid) -> bool {
        let rec = usize::try_from(tid).ok().and_then(|t| self.tasks.get(t));
        rec.is_some_and(|r| !r.subs.is_empty())
    }

    /// Drains the woken list, in wake order, onto the end of `out` (the
    /// caller's buffer, so neither side gives up its capacity).
    pub fn drain_woken(&mut self, out: &mut Vec<Tid>) {
        let mut woken = std::mem::take(&mut self.woken);
        for &tid in &woken {
            if let Some(rec) = self.rec_mut(tid) {
                rec.woken = false;
            }
        }
        out.append(&mut woken);
        self.woken = woken;
        self.woken_hint.store(false, Ordering::Release);
    }

    /// Drains the channels whose posts woke `tid` since its last drain,
    /// in fire order. Empty for direct wakes (futex wake, deadline
    /// lapse) — callers must treat an empty answer as "re-check
    /// everything", never "nothing fired".
    pub fn take_fired(&mut self, tid: Tid) -> Vec<Channel> {
        self.rec_mut(tid)
            .and_then(|rec| rec.fired.take())
            .unwrap_or_default()
    }

    /// A shared handle onto the woken hint, checkable without any lock.
    pub fn woken_hint(&self) -> Arc<AtomicBool> {
        self.woken_hint.clone()
    }

    /// The event generation of `ch`: how many posts it has seen since
    /// its owner was created.
    pub fn generation(&self, ch: Channel) -> u64 {
        self.heads.get(ch).map_or(0, |h| h.gen)
    }

    /// True when at least one task has been woken and not yet drained.
    pub fn has_woken(&self) -> bool {
        !self.woken.is_empty()
    }

    /// The owner of `ch` (a pipe, socket, epoll instance or eventfd
    /// description) is gone, and the head with it. A waiter that raced
    /// the close keeps the head alive; the next post on the recycled id
    /// wakes it into a retry that fails.
    pub fn release(&mut self, ch: Channel) {
        match self.heads.get_mut(ch) {
            Some(head) if !head.waiters.is_empty() => head.gen = 0,
            _ => self.heads.free(ch),
        }
    }

    /// Task `tid` was reaped: its subscriptions, its record and the
    /// heads of its `Signal`/`Child` channels go.
    pub fn release_task(&mut self, tid: Tid) {
        self.unsubscribe(tid);
        self.release(Channel::Signal(tid));
        self.release(Channel::Child(tid));
        if let Ok(t) = usize::try_from(tid) {
            self.tasks.remove(t);
        }
    }

    /// The subscription table itself (leak diagnostics).
    pub fn subscribed_channels(&self) -> Vec<(Tid, Vec<Channel>)> {
        let subscribed = self.tasks.iter().filter(|(_, r)| !r.subs.is_empty());
        subscribed
            .map(|(t, r)| (t as Tid, r.subs.clone()))
            .collect()
    }

    /// Every wait record, with its subscription count (leak audits: the
    /// kernel checks each against its task).
    pub fn records(&self) -> Vec<(Tid, usize)> {
        let recs = self.tasks.iter().map(|(t, r)| (t as Tid, r.subs.len()));
        recs.collect()
    }

    /// Every wait head, with its waiter count (leak audits: the kernel
    /// checks each against its owner).
    pub fn heads(&self) -> Vec<(Channel, usize)> {
        let heads = self.heads.iter().map(|(ch, h)| (ch, h.waiters.len()));
        heads.collect()
    }
}

/// One epoll registration watching a channel: the instance (by
/// handle — the router pushes onto its ring without looking anything
/// up) and the registration's key in it.
#[derive(Debug)]
struct Watcher {
    ep: Handle<Epoll>,
    key: u64,
}

/// The ready-ring router's lookup table: wait channel → the epoll
/// registrations whose readiness that channel's transitions may change.
///
/// Kept outside the [`WaitSet`] lock so the common post (no epoll
/// watcher anywhere) pays a single relaxed atomic load, and locked at
/// [`LockClass::ReadyHub`] — *below* the epoll class — so the router
/// can walk a channel's watchers and take each one's epoll lock without
/// inverting the DAG.
#[derive(Debug, Default)]
struct ReadyHub {
    watchers: ChanTable<Vec<Watcher>>,
    /// [`WaitShard::post_all`]'s list of freshly queued ring entries —
    /// `(index of the post that routed there, epoll id)` — kept for its
    /// capacity.
    routed: Vec<(usize, usize)>,
}

/// The waitqueue table behind its own shard lock.
///
/// With the big kernel lock sharded, producers (a fast-path pipe write
/// on one worker) and consumers (a subscribe-then-block on another)
/// touch the waitqueues concurrently. `WaitShard` wraps [`WaitSet`] in
/// a [`Tracked`] lock of class [`LockClass::Waits`] — the *innermost*
/// class, because the never-miss-a-wakeup protocol subscribes while
/// holding the object lock of the pipe/socket being waited on:
///
/// * consumers check object state and subscribe under the object lock;
/// * producers mutate under the object lock and post *after* releasing
///   it, so either the consumer saw the new state, or its subscription
///   was visible when the post ran.
#[derive(Clone, Debug)]
pub struct WaitShard {
    inner: Arc<Tracked<WaitSet>>,
    /// Ready-ring routing table (see [`ReadyHub`]).
    hub: Arc<Tracked<ReadyHub>>,
    /// Total watcher entries in the hub: the post fast path skips the
    /// hub lock entirely while this is zero (no epoll registrations
    /// anywhere).
    hub_count: Arc<AtomicUsize>,
}

impl Default for WaitShard {
    fn default() -> WaitShard {
        WaitShard::new()
    }
}

impl WaitShard {
    /// A fresh, empty waitqueue shard.
    pub fn new() -> WaitShard {
        WaitShard {
            inner: Arc::new(Tracked::new(LockClass::Waits, WaitSet::new())),
            hub: Arc::new(Tracked::new(LockClass::ReadyHub, ReadyHub::default())),
            hub_count: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The table, locked: every [`WaitSet`] operation but a post goes
    /// through here (a post also routes, see [`WaitShard::post_all`]).
    /// The guard is the innermost lock — take nothing else while it
    /// lives.
    pub fn lock(&self) -> TrackedGuard<'_, WaitSet> {
        self.inner.lock_ok()
    }

    /// Subscribes `tid` to `ch` and to its own signal channel — what
    /// every interruptible block parks on — under one acquisition.
    pub fn park_on(&self, tid: Tid, ch: Channel) {
        let mut waits = self.lock();
        waits.subscribe(tid, ch);
        waits.subscribe(tid, Channel::Signal(tid));
    }

    /// Registers registration `key` of epoll instance `ep` as a watcher
    /// of `ch`. Must not be called while holding a lock of rank ≥
    /// [`LockClass::ReadyHub`] (notably the epoll lock itself).
    pub fn hub_register(&self, ch: Channel, ep: &Handle<Epoll>, key: u64) {
        let mut hub = self.hub.lock_ok();
        let watchers = hub.watchers.slot(ch);
        if !watchers.iter().any(|w| w.ep.id == ep.id && w.key == key) {
            let ep = ep.clone();
            watchers.push(Watcher { ep, key });
            self.hub_count.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Removes a watcher added by [`WaitShard::hub_register`].
    pub fn hub_unregister(&self, ch: Channel, eid: usize, key: u64) {
        let mut hub = self.hub.lock_ok();
        let Some(watchers) = hub.watchers.get_mut(ch) else {
            return;
        };
        let before = watchers.len();
        watchers.retain(|w| w.ep.id != eid || w.key != key);
        if watchers.len() != before {
            self.hub_count.fetch_sub(1, Ordering::AcqRel);
        }
        if watchers.is_empty() {
            hub.watchers.free(ch);
        }
    }

    /// Registration `key` of `ep` watched `old` and is to watch `new`:
    /// the new channels go in before the old ones come out. (Same rule
    /// as [`WaitShard::hub_register`] about locks held.)
    pub(crate) fn hub_rewire(&self, ep: &Handle<Epoll>, key: u64, old: ChanSet, new: ChanSet) {
        new.iter().for_each(|ch| self.hub_register(ch, ep, key));
        let dropped = old.iter().filter(|ch| !new.contains(*ch));
        dropped.for_each(|ch| self.hub_unregister(ch, ep.id, key));
    }

    /// Total watcher entries currently in the hub (leak audits).
    pub fn hub_entries(&self) -> usize {
        self.hub_count.load(Ordering::Acquire)
    }

    /// One post (see [`WaitShard::post_all`]); the number of tasks it
    /// woke.
    pub fn post(&self, ch: Channel) -> usize {
        self.post_all(&[ch], &[])
    }

    /// Everything one call has to tell the waitqueue, under one hold of
    /// it: [`WaitSet::post`] on each of `posts`, in order, then
    /// [`WaitSet::release`] of the `dead` heads of an object the call
    /// tore down. Returns the number of tasks the posts woke.
    ///
    /// Ready-ring routing: an epoll registration watching a posted
    /// channel is pushed onto its instance's ready ring, and
    /// [`Channel::EpollReady`] is posted for each freshly queued entry
    /// right after the post that routed there (`EpollReady` has no
    /// watchers — nested epoll is `ELOOP` — so it needs no routing of
    /// its own). With watchers anywhere, the hub is locked first and the
    /// pushes happen — each under its instance's lock, through the
    /// watcher's handle — before the waitqueue is taken: ReadyHub →
    /// Epoll, then ReadyHub → Waits, strictly down the DAG from at most
    /// the caller's held ranks (≤ `Kernel`). Producers push-then-post,
    /// `epoll_wait` subscribes-then-rechecks; pushing a call's entries
    /// ahead of its first post keeps that order.
    pub fn post_all(&self, posts: &[Channel], dead: &[Channel]) -> usize {
        let mut hub = match self.hub_count.load(Ordering::Acquire) {
            0 => None,
            _ => Some(self.hub.lock_ok()),
        };
        let routed = hub.as_deref_mut().map(|hub| {
            hub.routed.clear();
            for (i, &ch) in posts.iter().enumerate() {
                for w in hub.watchers.get(ch).map_or(&[][..], Vec::as_slice) {
                    if w.ep.lock_ok().ring_push(w.key) {
                        hub.routed.push((i, w.ep.id));
                    }
                }
            }
            &hub.routed[..]
        });
        let mut routed = routed.unwrap_or(&[]).iter().peekable();
        let mut waits = self.inner.lock_ok();
        let mut woken = 0;
        for (i, &ch) in posts.iter().enumerate() {
            woken += waits.post(ch);
            while let Some((_, eid)) = routed.next_if(|(at, _)| *at == i) {
                waits.post(Channel::EpollReady(*eid));
            }
        }
        dead.iter().for_each(|&ch| waits.release(ch));
        woken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn woken(w: &mut WaitSet) -> Vec<Tid> {
        let mut out = Vec::new();
        w.drain_woken(&mut out);
        out
    }

    #[test]
    fn subscribe_post_wakes_in_order() {
        let mut w = WaitSet::new();
        w.subscribe(3, Channel::PipeReadable(0));
        w.subscribe(5, Channel::PipeReadable(0));
        w.subscribe(4, Channel::PipeWritable(0));
        assert_eq!(w.post(Channel::PipeReadable(0)), 2);
        assert_eq!(woken(&mut w), vec![3, 5]);
        assert!(w.is_subscribed(4), "other channel untouched");
        assert!(!w.is_subscribed(3));
    }

    #[test]
    fn post_without_waiters_is_a_miss() {
        let mut w = WaitSet::new();
        assert_eq!(w.post(Channel::SockReadable(9)), 0);
        assert_eq!(w.stats.posts_miss, 1);
        assert!(woken(&mut w).is_empty());
    }

    #[test]
    fn multi_channel_subscription_is_fully_cleared_on_wake() {
        let mut w = WaitSet::new();
        // A poll-style waiter parks on several channels at once.
        w.subscribe(7, Channel::SockReadable(1));
        w.subscribe(7, Channel::SockReadable(2));
        w.subscribe(7, Channel::Signal(7));
        w.post(Channel::SockReadable(2));
        assert_eq!(woken(&mut w), vec![7]);
        // The other subscriptions are gone: posting them is a miss.
        assert_eq!(w.post(Channel::SockReadable(1)), 0);
        assert_eq!(w.post(Channel::Signal(7)), 0);
    }

    #[test]
    fn wake_is_deduplicated() {
        let mut w = WaitSet::new();
        w.subscribe(2, Channel::Futex(MmId(1), 64));
        w.wake(2);
        w.wake(2);
        assert_eq!(woken(&mut w), vec![2]);
        assert_eq!(w.stats.wakeups, 1);
    }

    #[test]
    fn subscribe_is_idempotent() {
        let mut w = WaitSet::new();
        w.subscribe(1, Channel::Child(1));
        w.subscribe(1, Channel::Child(1));
        assert_eq!(w.post(Channel::Child(1)), 1);
        assert_eq!(woken(&mut w), vec![1]);
    }

    #[test]
    fn fired_channels_record_wake_order_and_drain() {
        let mut w = WaitSet::new();
        w.subscribe(1, Channel::PipeReadable(3));
        w.subscribe(1, Channel::PipeWritable(4));
        w.track_fired(1);
        w.post(Channel::PipeReadable(3));
        // The retry re-subscribes the still-blocked channel; a second
        // post appends to the same undrained log (tracking is still
        // armed: only a drain or unsubscription disarms it).
        w.subscribe(1, Channel::PipeWritable(4));
        w.post(Channel::PipeWritable(4));
        assert_eq!(
            w.take_fired(1),
            vec![Channel::PipeReadable(3), Channel::PipeWritable(4)]
        );
        assert!(w.take_fired(1).is_empty(), "drain clears the log");
        // Direct wakes record no channel: an empty answer means
        // "re-check everything", so futex wakes must not fabricate one.
        w.subscribe(1, Channel::PipeReadable(3));
        w.wake(1);
        assert!(w.take_fired(1).is_empty());
        // Unsubscribe (task exit, deadline cancel) discards the log.
        w.subscribe(2, Channel::Child(9));
        w.track_fired(2);
        w.post(Channel::Child(9));
        w.unsubscribe(2);
        assert!(w.take_fired(2).is_empty());
        // A task that never armed tracking records nothing: ordinary
        // blocked retries pay no fired-log bookkeeping on their wakes.
        w.subscribe(3, Channel::Child(1));
        w.post(Channel::Child(1));
        assert!(w.take_fired(3).is_empty());
    }

    #[test]
    fn unsubscribe_drops_without_waking() {
        let mut w = WaitSet::new();
        w.subscribe(6, Channel::EventFd(0xdead));
        w.unsubscribe(6);
        assert_eq!(w.post(Channel::EventFd(0xdead)), 0);
        assert!(woken(&mut w).is_empty());
    }

    /// The `HashMap` waitqueue table this module replaced, kept as the
    /// reference the model test drives the paged one against. Two
    /// additions: the release calls the old table never had (its
    /// generations were immortal — the bug), defined the only way the
    /// old storage can: forget the keys.
    mod reference {
        use super::super::{Channel, Tid, WaitStats};
        use std::collections::{HashMap, HashSet};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        #[derive(Debug, Default)]
        pub struct RefSet {
            /// Channel → subscribed tasks, in subscription order.
            waiters: HashMap<Channel, Vec<Tid>>,
            /// Channel → number of posts ever (hit or miss): the event
            /// generation. Edge-triggered epoll re-arms a registration when the
            /// generation of any of its channels moved — i.e. when a new
            /// transition happened since the last report, which is Linux's ET
            /// re-arm condition (new data re-notifies even while still ready).
            gens: HashMap<Channel, u64>,
            /// Reverse index: task → channels it is subscribed to.
            subscribed: HashMap<Tid, Vec<Channel>>,
            /// Woken tasks in wake order, deduplicated.
            woken: Vec<Tid>,
            woken_set: HashSet<Tid>,
            /// Lock-free mirror of `!woken.is_empty()`: SMP workers poll this
            /// between slices without taking the kernel lock (the authoritative
            /// drain still happens under it, via [`RefSet::take_woken`]).
            woken_hint: Arc<AtomicBool>,
            /// Task → channels whose posts woke it since its last
            /// [`RefSet::take_fired`] drain, in fire order. Batched-syscall
            /// retries (`wali_ring_enter`) consult this to re-attempt the
            /// operations whose channel actually fired first, so CQE order
            /// reflects wakeup order rather than submission order.
            fired: HashMap<Tid, Vec<Channel>>,
            /// Tasks that armed fired-channel recording for their next wakeups
            /// ([`RefSet::track_fired`], one-shot until the next drain). Only
            /// batched-syscall parks need the record, so only they pay the
            /// per-wake bookkeeping; everyone else's wakes skip it entirely.
            tracked: HashSet<Tid>,
            /// Counters.
            pub stats: WaitStats,
        }

        impl RefSet {
            /// Creates an empty waitqueue table.
            pub fn new() -> RefSet {
                RefSet::default()
            }

            /// Subscribes `tid` to `ch`. Idempotent per `(tid, ch)` pair.
            pub fn subscribe(&mut self, tid: Tid, ch: Channel) {
                let chans = self.subscribed.entry(tid).or_default();
                if chans.contains(&ch) {
                    return;
                }
                chans.push(ch);
                self.waiters.entry(ch).or_default().push(tid);
                self.stats.subscribes += 1;
            }

            /// Posts a wakeup on `ch`: every subscriber moves to the woken list
            /// and is unsubscribed from *all* its channels (a woken task either
            /// completes or re-subscribes on its retry).
            pub fn post(&mut self, ch: Channel) -> usize {
                *self.gens.entry(ch).or_default() += 1;
                let Some(tids) = self.waiters.remove(&ch) else {
                    self.stats.posts_miss += 1;
                    return 0;
                };
                self.stats.posts_hit += 1;
                let n = tids.len();
                for tid in tids {
                    self.wake_inner(tid, Some(ch));
                }
                n
            }

            /// Wakes one task directly (futex wake, task termination).
            pub fn wake(&mut self, tid: Tid) {
                self.unsubscribe(tid);
                self.wake_inner(tid, None);
            }

            fn wake_inner(&mut self, tid: Tid, via: Option<Channel>) {
                // Drop the task's other subscriptions (already removed from `via`).
                if let Some(chans) = self.subscribed.remove(&tid) {
                    for ch in chans {
                        if Some(ch) == via {
                            continue;
                        }
                        if let Some(q) = self.waiters.get_mut(&ch) {
                            q.retain(|t| *t != tid);
                            if q.is_empty() {
                                self.waiters.remove(&ch);
                            }
                        }
                    }
                }
                if let Some(ch) = via {
                    if !self.tracked.is_empty() && self.tracked.contains(&tid) {
                        let log = self.fired.entry(tid).or_default();
                        if !log.contains(&ch) {
                            log.push(ch);
                        }
                    }
                }
                if self.woken_set.insert(tid) {
                    self.woken.push(tid);
                    self.woken_hint.store(true, Ordering::Release);
                    self.stats.wakeups += 1;
                }
            }

            /// Arms fired-channel recording for `tid`'s next wakeups, until its
            /// next [`RefSet::take_fired`] drain or unsubscription. Called by
            /// `wali_ring_enter` each time it parks; a wake that lands before
            /// the arm merely yields an empty record (submission-order retry),
            /// which callers already treat as "re-check everything".
            pub fn track_fired(&mut self, tid: Tid) {
                self.tracked.insert(tid);
            }

            /// Removes every subscription of `tid` without waking it (task exit).
            pub fn unsubscribe(&mut self, tid: Tid) {
                self.tracked.remove(&tid);
                self.fired.remove(&tid);
                if let Some(chans) = self.subscribed.remove(&tid) {
                    for ch in chans {
                        if let Some(q) = self.waiters.get_mut(&ch) {
                            q.retain(|t| *t != tid);
                            if q.is_empty() {
                                self.waiters.remove(&ch);
                            }
                        }
                    }
                }
            }

            /// True when `tid` is subscribed to at least one channel.
            pub fn is_subscribed(&self, tid: Tid) -> bool {
                self.subscribed.contains_key(&tid)
            }

            /// Drains the woken list in wake order.
            pub fn take_woken(&mut self) -> Vec<Tid> {
                self.woken_set.clear();
                self.woken_hint.store(false, Ordering::Release);
                std::mem::take(&mut self.woken)
            }

            /// Drains the channels whose posts woke `tid` since its last drain,
            /// in fire order. Empty for direct wakes (futex wake, deadline
            /// lapse) — callers must treat an empty answer as "re-check
            /// everything", never "nothing fired".
            pub fn take_fired(&mut self, tid: Tid) -> Vec<Channel> {
                self.tracked.remove(&tid);
                self.fired.remove(&tid).unwrap_or_default()
            }

            /// The event generation of `ch`: how many posts it has ever seen.
            pub fn generation(&self, ch: Channel) -> u64 {
                self.gens.get(&ch).copied().unwrap_or(0)
            }

            /// True when at least one task has been woken and not yet drained.
            pub fn has_woken(&self) -> bool {
                !self.woken.is_empty()
            }

            /// The subscription table itself (leak diagnostics).
            pub fn subscribed_channels(&self) -> Vec<(Tid, Vec<Channel>)> {
                self.subscribed
                    .iter()
                    .map(|(t, chs)| (*t, chs.clone()))
                    .collect()
            }
        }

        impl RefSet {
            pub fn release(&mut self, ch: Channel) {
                match self.waiters.contains_key(&ch) {
                    true => drop(self.gens.insert(ch, 0)),
                    false => drop(self.gens.remove(&ch)),
                }
            }

            pub fn release_task(&mut self, tid: Tid) {
                self.unsubscribe(tid);
                self.release(Channel::Signal(tid));
                self.release(Channel::Child(tid));
                self.woken_set.remove(&tid);
            }
        }
    }

    #[test]
    fn heads_and_records_die_with_their_owner() {
        let mut w = WaitSet::new();
        w.post(Channel::PipeReadable(4));
        w.subscribe(40, Channel::PipeReadable(4));
        w.subscribe(40, Channel::Signal(40));
        w.post(Channel::PipeReadable(4));
        assert_eq!(w.generation(Channel::PipeReadable(4)), 2);
        assert_eq!(woken(&mut w), vec![40]);
        // The pipe is freed: the next pipe in slot 4 starts from zero.
        w.release(Channel::PipeReadable(4));
        assert_eq!(w.generation(Channel::PipeReadable(4)), 0);
        // The task is reaped: record, Signal/Child heads and page go (a
        // table keeps the page it emptied last, nothing else).
        w.release_task(40);
        assert!(w.records().is_empty() && w.heads().is_empty());
        let held = |t: &Paged<_>| t.pages_held();
        assert!(w.tasks.pages_held() <= 1 && w.heads.dense.iter().all(|t| held(t) <= 1));
        // Releases of things that never had state are no-ops.
        w.release(Channel::EventFd(0xbeef));
        w.release_task(7);
        assert!(w.records().is_empty() && w.heads().is_empty());
    }

    /// Drives the paged table and the `HashMap` reference with the same
    /// random operations over small, recycled id pools and compares
    /// every answer and the whole observable state after each step.
    #[test]
    fn paged_table_matches_the_hashmap_reference() {
        const TIDS: Tid = 40; // spans two pages
        let mut chans: Vec<Channel> = Vec::new();
        for id in 0..6 {
            chans.extend([
                Channel::PipeReadable(id),
                Channel::PipeWritable(id),
                Channel::SockReadable(id),
                Channel::SockSpace(id),
            ]);
        }
        chans.extend((0..3).map(Channel::EpollReady));
        chans.extend([Channel::EventFd(0x1000), Channel::EventFd(0x2000)]);
        let owned = chans.len(); // channels an fd-backed object owns
        chans.extend([Channel::Futex(MmId(1), 64), Channel::Futex(MmId(2), 64)]);
        chans.extend((1..=TIDS).flat_map(|t| [Channel::Signal(t), Channel::Child(t)]));

        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let (mut new, mut old) = (WaitSet::new(), reference::RefSet::new());
        for step in 0..20_000 {
            let tid = 1 + next(TIDS as usize) as Tid;
            let ch = chans[next(chans.len())];
            match next(16) {
                0..=5 => {
                    new.subscribe(tid, ch);
                    old.subscribe(tid, ch);
                }
                6..=9 => assert_eq!(new.post(ch), old.post(ch), "step {step}: post {ch:?}"),
                10 => {
                    new.wake(tid);
                    old.wake(tid);
                }
                11 => {
                    new.unsubscribe(tid);
                    old.unsubscribe(tid);
                }
                12 => {
                    new.track_fired(tid);
                    old.track_fired(tid);
                }
                13 => assert_eq!(new.take_fired(tid), old.take_fired(tid), "step {step}"),
                14 => assert_eq!(woken(&mut new), old.take_woken(), "step {step}: wake order"),
                _ if next(2) == 0 => {
                    let ch = chans[next(owned)];
                    new.release(ch);
                    old.release(ch);
                }
                _ => {
                    new.release_task(tid);
                    old.release_task(tid);
                }
            }
            assert_eq!(new.stats, old.stats, "step {step}");
            assert_eq!(new.has_woken(), old.has_woken(), "step {step}");
            for &ch in &chans {
                // A futex word has no owner, hence no generation.
                if !matches!(ch, Channel::Futex(..)) {
                    assert_eq!(
                        new.generation(ch),
                        old.generation(ch),
                        "step {step}: {ch:?}"
                    );
                }
            }
            for tid in 1..=TIDS {
                assert_eq!(
                    new.is_subscribed(tid),
                    old.is_subscribed(tid),
                    "step {step}"
                );
            }
            let mut subs = old.subscribed_channels();
            subs.sort_by_key(|(tid, _)| *tid);
            assert_eq!(new.subscribed_channels(), subs, "step {step}");
        }
        assert!(new.stats.posts_hit > 500 && new.stats.wakeups > 1_000);
    }
}
