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
//! or a pid, one paged table per kind; only `EventFd` (a pointer)
//! and `Futex` (an address) keep a map. A task's own subscription list
//! and flags sit in its *wait record*, indexed by tid. Heads and records
//! die with their owner ([`WaitSet::release`], [`WaitSet::release_task`]),
//! so a fork-per-request guest holds state for live objects only.
//!
//! Two waits keep no head here, as on Linux: an `epoll_wait` waits in
//! its instance ([`WaitShard::post_all`] wakes it), and signal interest
//! is a bit of the task's [`Sleep`] word ([`WaitSet::interrupt`]).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::kernel::epoll::Epoll;
use crate::kernel::ChanSet;
use crate::lockorder::{LockClass, Tracked, TrackedGuard};
use crate::slab::{Handle, Paged};
use crate::sync::{FastMap, HintFlag};
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
}

/// Channel kinds that carry a table index, in [`Channel::dense`] order.
const DENSE: [fn(usize) -> Channel; 5] = [
    Channel::PipeReadable,
    Channel::PipeWritable,
    Channel::SockReadable,
    Channel::SockSpace,
    |pid| Channel::Child(pid as Pid),
];

impl Channel {
    /// `(kind, index)` of a channel named after a slab slot or a process.
    fn dense(self) -> Option<(usize, usize)> {
        Some(match self {
            Channel::PipeReadable(id) => (0, id),
            Channel::PipeWritable(id) => (1, id),
            Channel::SockReadable(id) => (2, id),
            Channel::SockSpace(id) => (3, id),
            Channel::Child(pid) => (4, usize::try_from(pid).ok()?),
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

/// Bit 0 of a [`Sleep`] word: a signal ends the sleep.
const INTR: u64 = 1;

/// A task's sleep word, in its own block (reached through its
/// [`HintFlag`]): bit 0 is the signal interest an interruptible park
/// raises, the rest count the sleeps that ended. The task raises the bit
/// (while it is down nobody else writes), a wake ends the sleep under
/// the waitqueue lock (while it is up only wakers write): no
/// read-modify-write. An epoll instance's entry carries the count its
/// park saw and wakes nobody once that sleep ended (DESIGN.md "Channel
/// taxonomy").
#[derive(Debug, Default)]
pub struct Sleep {
    word: AtomicU64,
    /// The task's wait record holds the block: a park in an instance
    /// need not lend it.
    enrolled: AtomicBool,
}

impl Sleep {
    fn word(&self) -> u64 {
        self.word.load(Ordering::Acquire)
    }

    /// Starts an interruptible sleep, or stays in the one that is on:
    /// its number, and whether the wait record holds this block.
    fn arm(&self) -> (u64, bool) {
        let w = self.word();
        if w & INTR == 0 {
            self.word.store(w | INTR, Ordering::Release);
        }
        (w >> 1, self.enrolled.load(Ordering::Relaxed))
    }

    /// True while an interruptible sleep is on.
    pub fn interruptible(&self) -> bool {
        self.word() & INTR != 0
    }

    /// Ends the sleep that is on, if one is (under the waitqueue lock).
    fn end(&self) {
        let w = self.word();
        if w & INTR != 0 {
            self.word.store((w & !INTR) + 2, Ordering::Release);
        }
    }
}

/// A task parked in an epoll instance: its sleep as the park armed it,
/// and — while its wait record does not hold it — its block.
#[derive(Clone, Debug)]
pub(crate) struct Sleeper {
    tid: Tid,
    number: u64,
    task: Option<HintFlag>,
}

impl Sleeper {
    /// Arms `task`'s interruptible sleep and parks `tid` in `waiters`,
    /// an epoll instance's. A task is there at most once: an entry of
    /// the same sleep stays where it is, one of an earlier sleep is
    /// stale and goes.
    pub(crate) fn park(waiters: &mut Vec<Sleeper>, tid: Tid, task: &HintFlag) {
        let (number, enrolled) = task.sleep().arm();
        match waiters.iter().position(|s| s.tid == tid) {
            Some(i) if waiters[i].number == number => return,
            Some(i) => drop(waiters.remove(i)),
            None => {}
        }
        let task = (!enrolled).then(|| task.clone());
        waiters.push(Sleeper { tid, number, task });
    }
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
    /// The task's block, for its [`Sleep`] word: kept from the first
    /// call that parks or wakes the task with it in hand until the reap.
    task: Option<HintFlag>,
}

impl TaskRec {
    fn sleep(&self) -> Option<&Sleep> {
        self.task.as_ref().map(HintFlag::sleep)
    }
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

    /// Makes the record of `tid` hold `task`'s block, so that any wake
    /// of `tid` — a post included — ends its sleep.
    pub(crate) fn enroll(&mut self, tid: Tid, task: &HintFlag) {
        let Ok(t) = usize::try_from(tid) else { return };
        let rec = self.tasks.slot(t);
        if rec.task.is_none() {
            task.sleep().enrolled.store(true, Ordering::Relaxed);
            rec.task = Some(task.clone());
        }
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

    /// Starts an interruptible sleep of `tid` (`task` is its block): a
    /// signal ends it ([`WaitSet::interrupt`]), and so does any wake.
    pub fn sleep(&mut self, tid: Tid, task: &HintFlag) {
        self.enroll(tid, task);
        task.sleep().arm();
    }

    /// Subscribes `tid` to `ch` in an interruptible sleep: what every
    /// blocking call a signal may end does.
    pub fn park(&mut self, tid: Tid, task: &HintFlag, ch: Channel) {
        self.subscribe(tid, ch);
        self.sleep(tid, task);
    }

    /// A signal was generated for `tid`: wakes it if it sleeps
    /// interruptibly. Whether it does is one bit of its own word — no
    /// head to look up, nothing for the wake to unlink.
    pub fn interrupt(&mut self, tid: Tid, task: &HintFlag) -> bool {
        if !task.sleep().interruptible() {
            return false;
        }
        self.enroll(tid, task);
        self.wake_inner(tid, None);
        true
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

    /// Wakes one task directly (futex wake, task termination, a signal).
    pub fn wake(&mut self, tid: Tid, task: &HintFlag) {
        self.enroll(tid, task);
        self.unsubscribe(tid);
        self.wake_inner(tid, None);
    }

    /// Wakes a task an epoll instance's ring push took off the instance,
    /// unless the sleep it parked in has ended since.
    pub(crate) fn wake_sleeper(&mut self, sleeper: Sleeper) {
        let Sleeper { tid, number, task } = sleeper;
        let parked = |sleep: &Sleep| sleep.word() == number << 1 | INTR;
        match &task {
            // Checked before the record is made: a waiter that died
            // in its sleep leaves no state for the push to grow.
            Some(task) if parked(task.sleep()) => self.enroll(tid, task),
            Some(_) => return,
            None => match self.rec_mut(tid).and_then(|rec| rec.sleep()) {
                Some(sleep) if parked(sleep) => {}
                _ => return,
            },
        }
        self.wake_inner(tid, None);
    }

    fn wake_inner(&mut self, tid: Tid, via: Option<Channel>) {
        let Ok(t) = usize::try_from(tid) else { return };
        let rec = self.tasks.slot(t);
        unlink(&mut self.heads, tid, rec, via);
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

    /// Removes every subscription of `tid` and ends its sleep, without
    /// waking it (task exit, a call that takes its park back).
    pub fn unsubscribe(&mut self, tid: Tid) {
        let Some(t) = usize::try_from(tid).ok() else {
            return;
        };
        if let Some(rec) = self.tasks.get_mut(t) {
            rec.fired = None;
            unlink(&mut self.heads, tid, rec, None);
        }
    }

    /// [`WaitSet::unsubscribe`] of a task the caller holds: a sleep it
    /// began in an epoll instance ends too (a deadline lapsed, the
    /// embedder finalizes it).
    pub fn cancel(&mut self, tid: Tid, task: &HintFlag) {
        if task.sleep().interruptible() {
            self.enroll(tid, task);
        }
        self.unsubscribe(tid);
    }

    /// True when `tid` is subscribed to at least one channel or sleeps
    /// interruptibly.
    pub fn is_subscribed(&self, tid: Tid) -> bool {
        let rec = usize::try_from(tid).ok().and_then(|t| self.tasks.get(t));
        rec.is_some_and(|r| !r.subs.is_empty() || r.sleep().is_some_and(Sleep::interruptible))
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

    /// The owner of `ch` (a pipe, socket or eventfd description) is
    /// gone, and the head with it. A waiter that raced the close keeps
    /// the head alive; the next post on the recycled id wakes it into a
    /// retry that fails.
    pub fn release(&mut self, ch: Channel) {
        match self.heads.get_mut(ch) {
            Some(head) if !head.waiters.is_empty() => head.gen = 0,
            _ => self.heads.free(ch),
        }
    }

    /// Task `tid` was reaped: its subscriptions, its record and the
    /// head of its `Child` channel go.
    pub fn release_task(&mut self, tid: Tid) {
        self.unsubscribe(tid);
        self.release(Channel::Child(tid));
        let rec = usize::try_from(tid).ok().and_then(|t| self.tasks.remove(t));
        if let Some(sleep) = rec.as_ref().and_then(TaskRec::sleep) {
            sleep.enrolled.store(false, Ordering::Relaxed);
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

/// Drops every subscription in `tid`'s record but `via` (whose waiter
/// list the caller already emptied), and ends its sleep.
fn unlink(heads: &mut ChanTable<Head>, tid: Tid, rec: &mut TaskRec, via: Option<Channel>) {
    if let Some(sleep) = rec.sleep() {
        sleep.end();
    }
    for ch in rec.subs.drain(..).filter(|ch| Some(*ch) != via) {
        if let Some(head) = heads.get_mut(ch) {
            head.waiters.retain(|t| *t != tid);
            if head.waiters.is_empty() && matches!(ch, Channel::Futex(..)) {
                heads.free(ch);
            }
        }
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
    /// [`WaitShard::post_all`]'s list of the waiters its ring pushes
    /// took off their instances — `(index of the post that routed
    /// there, waiter)` — kept for its capacity.
    routed: Vec<(usize, Sleeper)>,
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

    /// [`WaitSet::park`] under one acquisition.
    pub fn park_on(&self, tid: Tid, task: &HintFlag, ch: Channel) {
        self.lock().park(tid, task, ch);
    }

    /// [`WaitSet::interrupt`]; the lock only for a task whose signal bit
    /// is up (the table checks it again under the lock).
    pub fn interrupt(&self, tid: Tid, task: &HintFlag) {
        if task.sleep().interruptible() {
            self.lock().interrupt(tid, task);
        }
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

    /// Wakes what a ring push outside a post took off an instance.
    pub(crate) fn wake_sleepers(&self, sleepers: impl IntoIterator<Item = Sleeper>) {
        let mut waits = self.lock();
        sleepers.into_iter().for_each(|s| waits.wake_sleeper(s));
    }

    /// Everything one call has to tell the waitqueue, under one hold of
    /// it: [`WaitSet::post`] on each of `posts`, in order, then
    /// [`WaitSet::release`] of the `dead` heads of an object the call
    /// tore down. Returns the number of tasks the posts' own heads woke.
    ///
    /// Ready-ring routing: an epoll registration watching a posted
    /// channel is pushed onto its instance's ready ring, and a push that
    /// queued a fresh entry takes the instance's waiters with it, under
    /// the instance lock; they are woken right after the post that
    /// routed there, in hub order, each in the order it parked. With
    /// watchers anywhere, the hub is locked first and the pushes happen
    /// — each under its instance's lock, through the watcher's handle —
    /// before the waitqueue is taken: ReadyHub → Epoll, then ReadyHub →
    /// Waits, strictly down the DAG from at most the caller's held ranks
    /// (≤ `Kernel`). Producers push-then-wake, `epoll_wait` pops and
    /// parks under one hold of the instance: whichever comes second sees
    /// the other.
    pub fn post_all(&self, posts: &[Channel], dead: &[Channel]) -> usize {
        let mut hub = match self.hub_count.load(Ordering::Acquire) {
            0 => None,
            _ => Some(self.hub.lock_ok()),
        };
        if let Some(ReadyHub { watchers, routed }) = hub.as_deref_mut() {
            for (i, &ch) in posts.iter().enumerate() {
                for w in watchers.get(ch).map_or(&[][..], Vec::as_slice) {
                    let mut ep = w.ep.lock_ok();
                    if ep.ring_push(w.key) {
                        ep.waiters.drain(..).for_each(|s| routed.push((i, s)));
                    }
                }
            }
        }
        let mut routed = hub.as_deref_mut().map(|h| h.routed.drain(..).peekable());
        let mut waits = self.inner.lock_ok();
        let mut woken = 0;
        for (i, &ch) in posts.iter().enumerate() {
            woken += waits.post(ch);
            while let Some((_, s)) = routed.as_mut().and_then(|r| r.next_if(|(at, _)| *at == i)) {
                waits.wake_sleeper(s);
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

    /// A task's block, for its sleep word.
    fn task() -> HintFlag {
        crate::task::Task::init(0).sig_hint
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
        let t7 = task();
        // A poll-style waiter parks on several channels at once.
        w.park(7, &t7, Channel::SockReadable(1));
        w.park(7, &t7, Channel::SockReadable(2));
        w.post(Channel::SockReadable(2));
        assert_eq!(woken(&mut w), vec![7]);
        // The other subscription is gone, and so is the signal interest.
        assert_eq!(w.post(Channel::SockReadable(1)), 0);
        assert!(!w.interrupt(7, &t7));
        assert!(woken(&mut w).is_empty());
    }

    #[test]
    fn wake_is_deduplicated() {
        let mut w = WaitSet::new();
        let t2 = task();
        w.subscribe(2, Channel::Futex(MmId(1), 64));
        w.wake(2, &t2);
        w.wake(2, &t2);
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
        w.wake(1, &task());
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

    /// Signal interest is a bit: a signal wakes an interruptible sleeper
    /// — parked on a channel, on nothing, or in an epoll instance — and
    /// nobody else.
    #[test]
    fn a_signal_wakes_an_interruptible_sleeper_directly() {
        let mut w = WaitSet::new();
        let (t3, t4, t5) = (task(), task(), task());
        w.sleep(3, &t3);
        w.subscribe(4, Channel::PipeReadable(1));
        Sleeper::park(&mut Vec::new(), 5, &t5);
        assert!(w.interrupt(3, &t3) && w.interrupt(5, &t5));
        assert!(!w.interrupt(4, &t4), "not interruptible");
        assert!(!w.interrupt(3, &t3), "the wake ended the sleep");
        assert_eq!(woken(&mut w), vec![3, 5]);
        assert_eq!(w.heads().len(), 1, "only the pipe's head exists");
    }

    /// A waiter that a signal, a deadline or a kill woke — or any post —
    /// is not woken by its old instance entry, whatever it does next.
    #[test]
    fn a_ring_waiter_whose_sleep_ended_stays_asleep_for_the_ring() {
        for how in 0..4 {
            let mut w = WaitSet::new();
            let t1 = task();
            let mut ring = Vec::new();
            Sleeper::park(&mut ring, 1, &t1);
            let stale = ring.pop().expect("parked");
            match how {
                0 => drop(w.interrupt(1, &t1)),
                1 => w.cancel(1, &t1),
                2 => w.wake(1, &t1),
                _ => {
                    w.park(1, &t1, Channel::PipeReadable(0));
                    w.post(Channel::PipeReadable(0));
                }
            }
            let _ = woken(&mut w);
            // Parked elsewhere since: the stale entry must not wake it.
            w.park(1, &t1, Channel::SockReadable(2));
            w.wake_sleeper(stale);
            assert!(woken(&mut w).is_empty(), "case {how}");
            assert!(w.is_subscribed(1));
            // Its new park in the ring wakes it.
            Sleeper::park(&mut ring, 1, &t1);
            ring.drain(..).for_each(|s| w.wake_sleeper(s));
            assert_eq!(woken(&mut w), vec![1], "case {how}");
            assert!(!w.is_subscribed(1), "case {how}: the wake cleared all");
        }
    }

    /// The `HashMap` waitqueue table this module replaced — with a
    /// `Signal(tid)` head per task and an `EpollReady(id)` head per epoll
    /// instance — kept as the reference the model test drives the paged
    /// table, the sleep bit and the instance waiters against. Two
    /// additions: the release calls the old table never had (its
    /// generations were immortal — the bug), defined the only way the
    /// old storage can: forget the keys.
    mod reference {
        use super::super::{Channel, Tid, WaitStats};
        use std::collections::{HashMap, HashSet};

        /// The channels of the old table: today's, plus the two heads
        /// the sleep bit and the instance waiters replaced.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum RefCh {
            Obj(Channel),
            Signal(Tid),
            EpollReady(usize),
        }

        #[derive(Debug, Default)]
        pub struct RefSet {
            /// Channel → subscribed tasks, in subscription order.
            waiters: HashMap<RefCh, Vec<Tid>>,
            /// Channel → number of posts ever (hit or miss): the event
            /// generation.
            gens: HashMap<RefCh, u64>,
            /// Reverse index: task → channels it is subscribed to.
            subscribed: HashMap<Tid, Vec<RefCh>>,
            /// Woken tasks in wake order, deduplicated.
            woken: Vec<Tid>,
            woken_set: HashSet<Tid>,
            /// Task → channels whose posts woke it since its last drain.
            fired: HashMap<Tid, Vec<RefCh>>,
            /// Tasks that armed fired-channel recording.
            tracked: HashSet<Tid>,
            pub stats: WaitStats,
        }

        impl RefSet {
            pub fn subscribe(&mut self, tid: Tid, ch: RefCh) {
                let chans = self.subscribed.entry(tid).or_default();
                if chans.contains(&ch) {
                    return;
                }
                chans.push(ch);
                self.waiters.entry(ch).or_default().push(tid);
                self.stats.subscribes += 1;
            }

            pub fn post(&mut self, ch: RefCh) -> usize {
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

            pub fn wake(&mut self, tid: Tid) {
                self.unsubscribe(tid);
                self.wake_inner(tid, None);
            }

            fn wake_inner(&mut self, tid: Tid, via: Option<RefCh>) {
                self.unlink(tid, via);
                if let Some(ch) = via.filter(|_| self.tracked.contains(&tid)) {
                    let log = self.fired.entry(tid).or_default();
                    if !log.contains(&ch) {
                        log.push(ch);
                    }
                }
                if self.woken_set.insert(tid) {
                    self.woken.push(tid);
                    self.stats.wakeups += 1;
                }
            }

            fn unlink(&mut self, tid: Tid, via: Option<RefCh>) {
                for ch in self.subscribed.remove(&tid).unwrap_or_default() {
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

            pub fn track_fired(&mut self, tid: Tid) {
                self.tracked.insert(tid);
            }

            pub fn unsubscribe(&mut self, tid: Tid) {
                self.tracked.remove(&tid);
                self.fired.remove(&tid);
                self.unlink(tid, None);
            }

            pub fn is_subscribed(&self, tid: Tid) -> bool {
                self.subscribed.contains_key(&tid)
            }

            pub fn take_woken(&mut self) -> Vec<Tid> {
                self.woken_set.clear();
                std::mem::take(&mut self.woken)
            }

            pub fn take_fired(&mut self, tid: Tid) -> Vec<RefCh> {
                self.tracked.remove(&tid);
                self.fired.remove(&tid).unwrap_or_default()
            }

            pub fn generation(&self, ch: RefCh) -> u64 {
                self.gens.get(&ch).copied().unwrap_or(0)
            }

            pub fn has_woken(&self) -> bool {
                !self.woken.is_empty()
            }

            pub fn subscribed_channels(&self) -> Vec<(Tid, Vec<RefCh>)> {
                let subs = self.subscribed.iter();
                subs.map(|(t, chs)| (*t, chs.clone())).collect()
            }

            pub fn release(&mut self, ch: RefCh) {
                match self.waiters.contains_key(&ch) {
                    true => drop(self.gens.insert(ch, 0)),
                    false => drop(self.gens.remove(&ch)),
                }
            }

            pub fn release_task(&mut self, tid: Tid) {
                self.unsubscribe(tid);
                self.release(RefCh::Signal(tid));
                self.release(RefCh::Obj(Channel::Child(tid)));
                self.woken_set.remove(&tid);
            }
        }
    }

    #[test]
    fn heads_and_records_die_with_their_owner() {
        let mut w = WaitSet::new();
        let t40 = task();
        w.post(Channel::PipeReadable(4));
        w.park(40, &t40, Channel::PipeReadable(4));
        w.post(Channel::PipeReadable(4));
        assert_eq!(w.generation(Channel::PipeReadable(4)), 2);
        assert_eq!(woken(&mut w), vec![40]);
        // The pipe is freed: the next pipe in slot 4 starts from zero.
        w.release(Channel::PipeReadable(4));
        assert_eq!(w.generation(Channel::PipeReadable(4)), 0);
        // The task is reaped: record, `Child` head and page go (a table
        // keeps the page it emptied last, nothing else).
        w.post(Channel::Child(40));
        w.release_task(40);
        assert!(w.records().is_empty() && w.heads().is_empty());
        let held = |t: &Paged<_>| t.pages_held();
        assert!(w.tasks.pages_held() <= 1 && w.heads.dense.iter().all(|t| held(t) <= 1));
        // Releases of things that never had state are no-ops.
        w.release(Channel::EventFd(0xbeef));
        w.release_task(7);
        assert!(w.records().is_empty() && w.heads().is_empty());
    }

    /// Drives the paged table — with the sleep bit and waiters parked in
    /// three model epoll instances — and the `HashMap` reference, whose
    /// tasks subscribe `Signal(tid)` and `EpollReady(id)` heads instead,
    /// with the same random operations over small, recycled id pools,
    /// and compares every answer, the wake order and the observable
    /// state after each step.
    #[test]
    fn paged_table_matches_the_hashmap_reference() {
        use reference::RefCh;
        const TIDS: Tid = 40; // spans two pages
        const RINGS: usize = 3;
        let mut chans: Vec<Channel> = Vec::new();
        for id in 0..6 {
            chans.extend([
                Channel::PipeReadable(id),
                Channel::PipeWritable(id),
                Channel::SockReadable(id),
                Channel::SockSpace(id),
            ]);
        }
        chans.extend([Channel::EventFd(0x1000), Channel::EventFd(0x2000)]);
        let owned = chans.len(); // channels an fd-backed object owns
        chans.extend([Channel::Futex(MmId(1), 64), Channel::Futex(MmId(2), 64)]);
        chans.extend((1..=TIDS).map(Channel::Child));
        let cells: Vec<HintFlag> = (0..=TIDS).map(|_| task()).collect();
        let mut rings: [Vec<Sleeper>; RINGS] = Default::default();

        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n as u64) as usize
        };
        let objects = |subs: Vec<RefCh>| -> Vec<Channel> {
            let objs = subs.into_iter().filter_map(|ch| match ch {
                RefCh::Obj(ch) => Some(ch),
                _ => None,
            });
            objs.collect()
        };
        let (mut new, mut old) = (WaitSet::new(), reference::RefSet::default());
        for step in 0..30_000 {
            let tid = 1 + next(TIDS as usize) as Tid;
            let cell = &cells[tid as usize];
            let ch = chans[next(chans.len())];
            let ring = next(RINGS);
            match next(22) {
                0..=4 => {
                    new.enroll(tid, cell);
                    new.subscribe(tid, ch);
                    old.subscribe(tid, RefCh::Obj(ch));
                }
                5 => {
                    new.sleep(tid, cell);
                    old.subscribe(tid, RefCh::Signal(tid));
                }
                6 | 7 => {
                    Sleeper::park(&mut rings[ring], tid, cell);
                    old.subscribe(tid, RefCh::EpollReady(ring));
                    old.subscribe(tid, RefCh::Signal(tid));
                }
                8..=10 => assert_eq!(
                    new.post(ch),
                    old.post(RefCh::Obj(ch)),
                    "step {step}: post {ch:?}"
                ),
                11 | 12 => {
                    rings[ring].drain(..).for_each(|s| new.wake_sleeper(s));
                    old.post(RefCh::EpollReady(ring));
                }
                13 => assert_eq!(
                    new.interrupt(tid, cell),
                    old.post(RefCh::Signal(tid)) != 0,
                    "step {step}: signal {tid}"
                ),
                14 => {
                    new.wake(tid, cell);
                    old.wake(tid);
                }
                15 => {
                    new.cancel(tid, cell);
                    old.unsubscribe(tid);
                }
                16 => {
                    new.track_fired(tid);
                    old.track_fired(tid);
                }
                17 => assert_eq!(
                    new.take_fired(tid),
                    objects(old.take_fired(tid)),
                    "step {step}"
                ),
                18 | 19 => assert_eq!(woken(&mut new), old.take_woken(), "step {step}: wake order"),
                20 => {
                    let ch = chans[next(owned)];
                    new.release(ch);
                    old.release(RefCh::Obj(ch));
                }
                _ => {
                    new.cancel(tid, cell);
                    new.release_task(tid);
                    old.release_task(tid);
                }
            }
            assert_eq!(new.stats.wakeups, old.stats.wakeups, "step {step}");
            assert_eq!(new.has_woken(), old.has_woken(), "step {step}");
            for &ch in &chans {
                // A futex word has no owner, hence no generation.
                if !matches!(ch, Channel::Futex(..)) {
                    assert_eq!(
                        new.generation(ch),
                        old.generation(RefCh::Obj(ch)),
                        "step {step}: {ch:?}"
                    );
                }
            }
            for tid in 1..=TIDS {
                let asleep = cells[tid as usize].sleep().interruptible();
                assert_eq!(
                    new.is_subscribed(tid) || asleep,
                    old.is_subscribed(tid),
                    "step {step}: {tid}"
                );
            }
            let mut subs: Vec<_> = old.subscribed_channels();
            subs.sort_by_key(|(tid, _)| *tid);
            let subs = subs.into_iter().map(|(t, chs)| (t, objects(chs)));
            let subs: Vec<_> = subs.filter(|(_, chs)| !chs.is_empty()).collect();
            assert_eq!(new.subscribed_channels(), subs, "step {step}");
        }
        assert!(new.stats.posts_hit > 500 && new.stats.wakeups > 1_000);
    }
}
