//! `epoll`: scalable readiness notification.
//!
//! A thin, deterministic model of the Linux epoll family, layered over the
//! same readiness logic as `poll` (`KernelHandles::probe`) and the same
//! waitqueues as every other blocking call:
//!
//! * the interest list is keyed by descriptor number but each
//!   registration is pinned to its **open file description** identity
//!   (`EpollReg::file`) — a closed fd whose slot number is reused by a
//!   new file does not inherit the old registration, a registration
//!   stays reportable while any `dup`/fork duplicate keeps its
//!   description open, and fully-closed registrations are swept when a
//!   pop finds them (Linux's description-keyed semantics, man epoll Q6);
//! * delivery is level-triggered by default; `EPOLLET` reports on a
//!   not-ready→ready edge or when a new transition (waitqueue post)
//!   arrived since the last report — Linux's re-arm-on-new-event
//!   semantics, tracked through per-channel event generations — and
//!   `EPOLLONESHOT` disarms a registration after one report until
//!   `EPOLL_CTL_MOD` re-arms it.
//!
//! # The ready ring
//!
//! Scanning the interest list would be O(interest) per wakeup: a
//! 100k-registration server would pay for every idle connection on every
//! event. Readiness flows the other way, like Linux:
//!
//! * `epoll_ctl` registers each interest entry's wait channels in the
//!   waitqueue's ready hub ([`crate::wait::WaitShard::hub_register`]);
//! * every waitqueue post routes through the hub, pushing the watching
//!   registrations onto their instance's `Epoll::ready` ring (the
//!   `queued` flag keeps an entry on the ring at most once); a push that
//!   queued a fresh entry takes the instance's waiters, under the same
//!   hold, for the post to wake;
//! * `epoll_wait` pops the ring under one hold of the instance's lock
//!   ([`KernelHandles::epoll_wait`], on the shards — no kernel lock, as
//!   Linux's `ep_poll` takes no global one): it re-verifies only the
//!   popped entries — O(ready), not O(interest) — each through the pipe
//!   or socket its registration was armed with, re-queues still-ready
//!   level-triggered entries and, for a caller about to block with
//!   nothing to report, parks it in the instance (`Epoll::waiters`)
//!   before letting go. Producers push under that lock, so whichever
//!   side comes second sees the other. A woken waiter that finds its
//!   one candidate drained (seven of the eight workers a prefork herd
//!   wakes per connection) takes two locks — the instance and the
//!   listener — and allocates nothing;
//! * `poll`/`ppoll` on an epoll fd runs the same pop as a pure peek,
//!   and waits in the instance beside any `epoll_wait`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Weak};

use wali_abi::flags::{
    EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLONESHOT, EPOLLOUT, EPOLL_CLOEXEC, EPOLL_CTL_ADD,
    EPOLL_CTL_DEL, EPOLL_CTL_MOD, O_RDWR, POLLERR, POLLHUP, POLLIN, POLLOUT,
};
use wali_abi::Errno;

use crate::fd::{FileKind, FileRef, Files, OpenFile};
use crate::slab::Handle;
use crate::sync::{FastMap, HintFlag};
use crate::wait::{Channel, Sleeper};
use crate::{SysResult, Tid};

use super::sock::Pollable;
use super::{ChanSet, Kernel, KernelHandles};

/// One interest-list registration. Like Linux, the registration key is
/// the `(fd number, open file description)` *pair*: the `file` identity
/// pins it to the description that was registered, so a closed-and-reused
/// fd number neither inherits nor displaces a registration whose
/// description is still alive through a duplicate.
#[derive(Clone, Debug)]
pub(crate) struct EpollReg {
    pub(crate) fd: i32,
    pub(crate) events: u32,
    pub(crate) data: u64,
    /// The registered description: its identity, and whether anything
    /// still holds it (a fully closed one is swept).
    pub(crate) file: Weak<OpenFile>,
    /// The pipe end or socket that description holds: a pop verifies
    /// through it. `None` for the kinds that are probed through `file`
    /// (an eventfd's counter, the always-ready rest).
    pub(crate) object: Option<Pollable>,
    /// `EPOLLET` state: the readiness mask the previous pop observed.
    /// A bit reports when it rises, or when the registration's event
    /// generation moved (a new transition arrived — Linux re-notifies
    /// ET on new data even while the level stays high). Level-triggered
    /// registrations ignore this field.
    pub(crate) prev_ready: u32,
    /// `EPOLLET` state: sum of the wait-channel event generations at
    /// the previous pop.
    pub(crate) prev_gen: u64,
    /// `EPOLLONESHOT` state: cleared after one report; `EPOLL_CTL_MOD`
    /// re-arms. Disarmed registrations neither report nor contribute
    /// wait channels.
    pub(crate) armed: bool,
    /// Ready-ring state: true while this registration sits on
    /// [`Epoll::ready`] (keeps it on the ring at most once).
    pub(crate) queued: bool,
    /// The wait channels this registration is registered for in the
    /// ready hub. Kept exact so `EPOLL_CTL_DEL`/`MOD`, the
    /// dead-description sweep and instance release can unregister
    /// precisely.
    pub(crate) hub_chans: ChanSet,
}

/// What a pop does besides verifying what it popped.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Pop<'a> {
    /// `poll` on the epoll fd: no ET edge or ONESHOT disarm is recorded
    /// and every popped entry goes back on the ring.
    Peek,
    /// `epoll_wait` that returns whatever it finds.
    Take,
    /// `epoll_wait` that blocks: with nothing to report, the caller —
    /// this is its block — is parked in the instance before the pop
    /// lets go of it.
    TakeOrPark(&'a HintFlag),
}

/// What a blocked `epoll_wait` retries by: the description it resolved,
/// *kept* — a sibling that closes the descriptor (and reuses the number)
/// neither releases the instance under the waiter nor redirects it:
/// Linux's `fdget` — and the instance ([`Kernel::epoll_release`]).
#[derive(Debug)]
pub struct EpollHold {
    file: FileRef,
    ep: Handle<Epoll>,
}

impl EpollHold {
    /// Resolves `epfd` in `files` for an `epoll_wait` — once per call,
    /// however often it blocks: the retries go by the hold.
    pub fn resolve(files: &Files, epfd: i32) -> Result<EpollHold, Errno> {
        let table = files.lock_ok();
        let file = &table.get(epfd)?.file;
        match &file.kind {
            FileKind::Epoll(ep) => Ok(EpollHold {
                file: file.clone(),
                ep: ep.clone(),
            }),
            _ => Err(Errno::Einval),
        }
    }

    /// The call that took the hold is over: the description, with the
    /// address its handle had, if its descriptor was closed meanwhile
    /// and this was its last reference — the core's to release
    /// ([`Kernel::release_description`]).
    pub fn give_back(self) -> Option<(OpenFile, usize)> {
        let key = Arc::as_ptr(&self.file) as usize;
        Arc::into_inner(self.file).map(|last| (last, key))
    }
}

/// One epoll instance: the interest list and its ready ring.
#[derive(Clone, Debug, Default)]
pub struct Epoll {
    /// Registrations keyed by a monotone insertion key (key order ==
    /// registration order, so ring pops report deterministically);
    /// entries whose description is fully closed are swept by the pop
    /// that finds them. Several entries may share an fd
    /// number when a slot was reused while a dup keeps the old
    /// description alive — exactly Linux's (fd, file) pair keying.
    pub(crate) interest: BTreeMap<u64, EpollReg>,
    /// Next insertion key.
    pub(crate) next_key: u64,
    /// The ready ring: keys pushed by readiness transitions, popped by
    /// `epoll_wait`. May hold keys whose registration has since been
    /// deleted (pops skip unknown keys).
    pub(crate) ready: VecDeque<u64>,
    /// fd number → registration keys (the `epoll_ctl` lookup index; a
    /// number maps to several keys when a reused slot coexists with a
    /// dup-kept registration).
    pub(crate) by_fd: FastMap<i32, Vec<u64>>,
    /// The tasks parked here — `epoll_wait`s that found nothing, `poll`s
    /// on the epoll fd — in the order they parked: Linux's `ep->wq`.
    pub(crate) waiters: Vec<Sleeper>,
}

impl Epoll {
    /// Parks `tid` (`task` is its block) until a push queues an entry.
    pub(crate) fn park(&mut self, tid: Tid, task: &HintFlag) {
        Sleeper::park(&mut self.waiters, tid, task);
    }

    /// Queues registration `key` on the ready ring. Returns `true` iff
    /// the registration exists, is armed and was not already queued —
    /// i.e. iff the instance's waiters are to be woken. Idempotent:
    /// racing pushes of the same key enqueue it once.
    pub(crate) fn ring_push(&mut self, key: u64) -> bool {
        let Some(reg) = self.interest.get_mut(&key) else {
            return false;
        };
        if !reg.armed || reg.queued {
            return false;
        }
        reg.queued = true;
        self.ready.push_back(key);
        true
    }

    /// Inserts a registration under a fresh key, maintaining the fd
    /// index.
    fn insert_reg(&mut self, reg: EpollReg) -> u64 {
        let key = self.next_key;
        self.next_key += 1;
        self.by_fd.entry(reg.fd).or_default().push(key);
        self.interest.insert(key, reg);
        key
    }

    /// Removes registration `key`, maintaining the fd index. A stale
    /// copy of the key may remain on the ready ring; pops skip it.
    fn remove_reg(&mut self, key: u64) -> Option<EpollReg> {
        let reg = self.interest.remove(&key)?;
        if let Some(keys) = self.by_fd.get_mut(&reg.fd) {
            keys.retain(|&k| k != key);
            if keys.is_empty() {
                self.by_fd.remove(&reg.fd);
            }
        }
        Some(reg)
    }

    /// The key registered for the `(fd, description)` pair, if any.
    fn find(&self, fd: i32, target: &FileRef) -> Option<u64> {
        let keys = self.by_fd.get(&fd)?;
        let registered = |k: &u64| self.interest.get(k).map(|reg| reg.file.as_ptr());
        keys.iter()
            .copied()
            .find(|k| registered(k) == Some(Arc::as_ptr(target)))
    }
}

/// Converts an epoll interest mask to the `poll` events to probe.
fn epoll_to_poll(events: u32) -> i16 {
    let mut ev = 0i16;
    if events & EPOLLIN != 0 {
        ev |= POLLIN;
    }
    if events & EPOLLOUT != 0 {
        ev |= POLLOUT;
    }
    ev
}

/// Converts `poll` revents back to an epoll report mask, filtered by the
/// registered interest (ERR/HUP are always reported, like Linux).
fn poll_to_epoll(revents: i16, interest: u32) -> u32 {
    let mut ev = 0u32;
    if revents & POLLIN != 0 && interest & EPOLLIN != 0 {
        ev |= EPOLLIN;
    }
    if revents & POLLOUT != 0 && interest & EPOLLOUT != 0 {
        ev |= EPOLLOUT;
    }
    if revents & POLLERR != 0 {
        ev |= EPOLLERR;
    }
    if revents & POLLHUP != 0 {
        ev |= EPOLLHUP;
    }
    ev
}

impl Kernel {
    /// The epoll instance behind `epfd`.
    pub fn epoll_of(&self, tid: Tid, epfd: i32) -> Result<Handle<Epoll>, Errno> {
        let hold = EpollHold::resolve(&self.task(tid)?.fdtable, epfd)?;
        Ok(hold.ep)
    }

    /// [`EpollHold::resolve`] in `tid`'s fd table.
    pub fn epoll_hold(&self, tid: Tid, epfd: i32) -> Result<EpollHold, Errno> {
        EpollHold::resolve(&self.task(tid)?.fdtable, epfd)
    }

    /// The `epoll_wait` that took `hold` is over; if its descriptor was
    /// closed meanwhile, this is the last reference and releases.
    pub fn epoll_release(&mut self, hold: EpollHold) {
        if let Some((last, key)) = hold.give_back() {
            self.release_description(last, key);
        }
    }

    /// Frees an epoll instance when its last descriptor closes,
    /// unregistering every ready-hub channel its registrations held.
    /// Its waiters die with it: a blocked call keeps its instance alive
    /// ([`EpollHold`]), so none is left.
    pub(crate) fn release_epoll(&mut self, ep: &Handle<Epoll>) {
        self.epolls.free(ep.id);
        let chans: Vec<(Channel, u64)> = {
            let g = ep.lock_ok();
            g.interest
                .iter()
                .flat_map(|(k, r)| r.hub_chans.iter().map(move |c| (c, *k)))
                .collect()
        };
        for (ch, key) in chans {
            self.waits.hub_unregister(ch, ep.id, key);
        }
    }

    /// `epoll_create1(flags)`: allocates an instance and its fd.
    pub fn sys_epoll_create1(&mut self, tid: Tid, flags: i32) -> SysResult<i32> {
        if flags & !EPOLL_CLOEXEC != 0 {
            return Err(Errno::Einval.into());
        }
        let ep = self.epolls.insert(Epoll::default());
        let file = OpenFile::shared(FileKind::Epoll(ep), O_RDWR);
        let task = self.task(tid)?;
        let fd = task
            .fdtable
            .lock_ok()
            .alloc(file, flags & EPOLL_CLOEXEC != 0)?;
        Ok(fd)
    }

    /// `epoll_ctl(epfd, op, fd, event)`.
    pub fn sys_epoll_ctl(
        &mut self,
        tid: Tid,
        epfd: i32,
        op: i32,
        fd: i32,
        events: u32,
        data: u64,
    ) -> SysResult {
        let ep = self.epoll_of(tid, epfd)?;
        // The target must be an open descriptor of the caller.
        let target = self.task(tid)?.fdtable.lock_ok().file(fd)?;
        let object = match &target.kind {
            // Nested epoll instances would make the wait-channel walk
            // cyclic; Linux reports closed loops the same way.
            FileKind::Epoll(_) => return Err(Errno::Eloop.into()),
            kind => Pollable::of(kind),
        };
        // What happened under the epoll lock (hub bookkeeping and the
        // readiness probe run after it drops: the hub ranks below the
        // epoll class).
        enum Edit {
            Armed(u64, ChanSet),
            Deleted(ChanSet, u64),
        }
        let edit = {
            let mut g = ep.lock_ok();
            // The registration key is the (fd, description) pair: a stale
            // entry for the same fd number but a different (or dead)
            // description does not count as "present".
            let existing = g.find(fd, &target);
            match (op, existing) {
                (EPOLL_CTL_ADD, Some(_)) => return Err(Errno::Eexist.into()),
                (EPOLL_CTL_ADD, None) => {
                    let key = g.insert_reg(EpollReg {
                        fd,
                        events,
                        data,
                        file: Arc::downgrade(&target),
                        object,
                        prev_ready: 0,
                        prev_gen: 0,
                        armed: true,
                        queued: false,
                        hub_chans: ChanSet::default(),
                    });
                    Edit::Armed(key, ChanSet::default())
                }
                // MOD re-arms a ONESHOT-disarmed registration and resets
                // the edge-trigger state (Linux re-arms on modify).
                (EPOLL_CTL_MOD, Some(key)) => {
                    let reg = g.interest.get_mut(&key).expect("found key is live");
                    let old_chans = std::mem::take(&mut reg.hub_chans);
                    reg.events = events;
                    reg.data = data;
                    reg.prev_ready = 0;
                    reg.prev_gen = 0;
                    reg.armed = true;
                    Edit::Armed(key, old_chans)
                }
                (EPOLL_CTL_DEL, Some(key)) => {
                    let reg = g.remove_reg(key).expect("found key is live");
                    Edit::Deleted(reg.hub_chans, key)
                }
                (EPOLL_CTL_MOD | EPOLL_CTL_DEL, None) => return Err(Errno::Enoent.into()),
                _ => return Err(Errno::Einval.into()),
            }
        };
        match edit {
            Edit::Armed(key, old_chans) => {
                let probe = |asked| self.shards.probe(&target, asked);
                self.shards
                    .ring_arm(&ep, key, &probe, events, old_chans, None)?
            }
            // No wakeup: a waiter that no longer matches this entry
            // simply never sees it (a stale ring key is skipped at the
            // next pop).
            Edit::Deleted(chans, key) => self.waits.hub_rewire(&ep, key, chans, ChanSet::default()),
        }
        Ok(0)
    }

    /// [`KernelHandles::epoll_wait`] for `tid`, under the kernel lock.
    pub fn epoll_wait(
        &mut self,
        tid: Tid,
        hold: &EpollHold,
        max: usize,
        park: bool,
        out: &mut Vec<(u32, u64)>,
    ) -> bool {
        let Ok(task) = self.task(tid).map(|t| t.sig_hint.clone()) else {
            return false;
        };
        let how = if park {
            Pop::TakeOrPark(&task)
        } else {
            Pop::Take
        };
        self.shards.epoll_ready(tid, &hold.ep, max, how, out)
    }

    /// Parks `tid` in the instance behind `epfd` without looking at its
    /// ring (the `scan-split` fault gate's second half).
    pub fn epoll_park(&mut self, tid: Tid, epfd: i32) -> Result<(), Errno> {
        let ep = self.epoll_of(tid, epfd)?;
        ep.lock_ok().park(tid, &self.task(tid)?.sig_hint);
        Ok(())
    }

    /// The ready-ring pop addressed by epoll fd: what a non-blocking
    /// `epoll_wait` reports.
    pub fn sys_epoll_wait_ready(
        &mut self,
        tid: Tid,
        epfd: i32,
        max: usize,
    ) -> SysResult<Vec<(u32, u64)>> {
        let ep = self.epoll_of(tid, epfd)?;
        let mut out = Vec::new();
        self.shards.epoll_ready(tid, &ep, max, Pop::Take, &mut out);
        Ok(out)
    }
}

impl KernelHandles {
    /// The sum of `chans`' event generations: it moves whenever a new
    /// transition (post) happened on any of them — the ET re-arm signal.
    fn generation(&self, chans: ChanSet) -> u64 {
        let waits = self.waits.lock();
        chans.iter().map(|ch| waits.generation(ch)).sum()
    }

    /// (Re)wires registration `key`'s hub channels — it watched `old` —
    /// *then* looks at the description (`probe`, asked for the events it
    /// polls): a transition landing after the look is guaranteed to
    /// route. `epoll_ctl` (`seen: None`) queues
    /// the registration and wakes the instance's waiters if it is
    /// report-worthy now (a not-ready `EPOLL_CTL_ADD` wakes nobody); a
    /// pop that found the channel set changed says what it `seen` —
    /// revents, generation — and queues it if anything moved since: a
    /// transition on a channel not yet watched reached no ring.
    pub(crate) fn ring_arm(
        &self,
        ep: &Handle<Epoll>,
        key: u64,
        probe: &dyn Fn(i16) -> SysResult<(ChanSet, i16)>,
        events: u32,
        old: ChanSet,
        seen: Option<(i16, u64)>,
    ) -> SysResult<()> {
        let asked = epoll_to_poll(events);
        let (chans, _) = probe(asked)?;
        self.waits.hub_rewire(ep, key, old, chans);
        if let Some(reg) = ep.lock_ok().interest.get_mut(&key) {
            reg.hub_chans = chans;
        }
        let (_, revents) = probe(asked)?;
        let push = match seen {
            None => poll_to_epoll(revents, events) != 0,
            Some(seen) => (revents, self.generation(chans)) != seen,
        };
        if push {
            let mut g = ep.lock_ok();
            let woken: Vec<Sleeper> = match g.ring_push(key) {
                true => g.waiters.drain(..).collect(),
                false => Vec::new(),
            };
            drop(g);
            self.waits.wake_sleepers(woken);
        }
        Ok(())
    }

    /// The ready-ring pop: appends up to `max` ready `(events, data)`
    /// reports to `out`, in registration order, and says whether it
    /// parked the caller ([`Pop::TakeOrPark`] with nothing to report).
    /// Under one hold of the instance it drains the
    /// ring, re-verifies only the popped entries — O(ready) — and
    /// re-queues still-ready level-triggered entries plus anything past
    /// the caller's budget. A registration stays live while *any*
    /// duplicate of its description exists and is swept once that is
    /// fully closed. Never blocks — the embedder handles the timeout —
    /// and allocates nothing beyond what `out` needs to grow.
    ///
    /// Lock order: `Epoll → Object` for a verify, `Epoll → Waits` for an
    /// ET generation. What needs the ready hub, which ranks *below* the
    /// instance, waits until the hold is over: a swept registration's
    /// channels, the re-wiring of one whose description changed its
    /// channel set (a connected socket gained its peer's).
    pub(crate) fn epoll_ready(
        &self,
        tid: Tid,
        ep: &Handle<Epoll>,
        max: usize,
        how: Pop,
        out: &mut Vec<(u32, u64)>,
    ) -> bool {
        let (start, budget) = (out.len(), out.len() + max.max(1));
        let peek = matches!(how, Pop::Peek);
        // `(key, channels it watched, what the pop saw: the object, its
        // events, revents and generation — none once fully closed)`.
        let mut rewires = Vec::new();
        let mut g = ep.lock_ok();
        // Keys are sorted so reports come out in registration order
        // (single-worker runs stay bit-deterministic).
        g.ready.make_contiguous().sort_unstable();
        let mut last = None;
        for _ in 0..g.ready.len() {
            let Epoll {
                ready, interest, ..
            } = &mut *g;
            let key = ready.pop_front().expect("counted");
            // Unknown key: deleted after it was queued — dropped.
            let (false, Some(reg)) = (last.replace(key) == Some(key), interest.get_mut(&key))
            else {
                continue;
            };
            reg.queued = false;
            if !reg.armed {
                continue;
            }
            if out.len() >= budget {
                // Past the caller's budget: re-queued unverified, its
                // transitions are still unconsumed.
                reg.queued = true;
                ready.push_back(key);
                continue;
            }
            let asked = epoll_to_poll(reg.events);
            let probed = match (&reg.object, reg.file.strong_count()) {
                (_, 0) => None,
                (Some(object), _) => Some(object.probe(asked)),
                (None, _) => reg.file.upgrade().map(|file| {
                    // A device that lost its inode reads as never ready.
                    let probed = self.probe(&file, asked).unwrap_or_default();
                    self.release_unpollable(file);
                    probed
                }),
            };
            let Some((chans, revents)) = probed else {
                // Fully closed: swept.
                rewires.push((key, reg.hub_chans, None));
                g.remove_reg(key);
                continue;
            };
            // Only a socket's channel set changes (it gains and loses a
            // peer), so a re-wire probes the object.
            let rewire = (chans != reg.hub_chans)
                .then(|| reg.object.clone())
                .flatten();
            let ready_now = poll_to_epoll(revents, reg.events);
            let et = reg.events & EPOLLET != 0;
            let gen = if et || rewire.is_some() {
                self.generation(chans)
            } else {
                0
            };
            if let Some(object) = rewire {
                rewires.push((key, reg.hub_chans, Some((object, reg.events, revents, gen))));
            }
            let report = if et {
                // Edge-triggered: report bits that rose since the
                // previous pop, or everything ready when a new
                // transition arrived in between (generation moved) —
                // data written between a drain and this pop must
                // re-notify, like Linux ET re-arming on new events.
                (ready_now & !reg.prev_ready) | if gen != reg.prev_gen { ready_now } else { 0 }
            } else {
                ready_now
            };
            let disarm = reg.events & EPOLLONESHOT != 0 && report != 0;
            if !peek {
                reg.prev_ready = ready_now;
                reg.prev_gen = gen;
                reg.armed &= !disarm;
            }
            if report != 0 {
                out.push((report, reg.data));
            }
            // Level-triggered readiness persists until drained: back on
            // the ring, so the next pop re-verifies it.
            if peek || (report != 0 && !et && !disarm) {
                reg.queued = true;
                ready.push_back(key);
            }
        }
        // Nothing to report and the caller blocks: parked before the
        // instance is let go. A producer pushes under this lock and takes
        // the waiters with it, so a transition either was on the ring
        // above or finds the waiter.
        let parked = match how {
            Pop::TakeOrPark(task) if out.len() == start => {
                g.park(tid, task);
                true
            }
            _ => false,
        };
        drop(g);
        for (key, old, seen) in rewires {
            match seen {
                None => self.waits.hub_rewire(ep, key, old, ChanSet::default()),
                Some((object, events, revents, gen)) => {
                    let probe = |asked| Ok(object.probe(asked));
                    let _ = self.ring_arm(ep, key, &probe, events, old, Some((revents, gen)));
                }
            }
        }
        parked
    }

    /// Drops `file`, a description that tells its own readiness: if a
    /// `close` made this reference the last, releasing it is the
    /// waitqueue's alone (an eventfd's head) — no kernel lock.
    fn release_unpollable(&self, file: FileRef) {
        let key = Arc::as_ptr(&file) as usize;
        let last = Arc::into_inner(file);
        if last.is_some_and(|gone| matches!(gone.kind, FileKind::EventFd)) {
            self.waits.lock().release(Channel::EventFd(key));
        }
    }

    /// One attempt of `epoll_wait` by `tid` (`task` is its block) on the
    /// instance `hold` names: appends up to `max` ready `(events, data)`
    /// reports to `out`. With `park`, an attempt that reports nothing
    /// parks the caller in the instance — one entry, whatever the
    /// interest size, and no waitqueue lock — and answers `true`: the
    /// caller blocks and retries by `hold`.
    pub fn epoll_wait(
        &self,
        tid: Tid,
        task: &HintFlag,
        hold: &EpollHold,
        max: usize,
        park: bool,
        out: &mut Vec<(u32, u64)>,
    ) -> bool {
        let how = if park {
            Pop::TakeOrPark(task)
        } else {
            Pop::Take
        };
        self.epoll_ready(tid, &hold.ep, max, how, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wait::Channel;
    use crate::SysError;
    use wali_abi::flags::{AF_INET, SOCK_STREAM};
    use wali_abi::layout::WaliSockaddr;

    fn kp() -> (Kernel, Tid) {
        let mut k = Kernel::new();
        let tid = k.spawn_process();
        (k, tid)
    }

    /// A blocking `epoll_wait` attempt that expects nothing to report:
    /// whether it parked.
    fn park(k: &mut Kernel, tid: Tid, epfd: i32) -> bool {
        let hold = k.epoll_hold(tid, epfd).unwrap();
        let mut out = Vec::new();
        let parked = k.epoll_wait(tid, &hold, 8, true, &mut out);
        k.epoll_release(hold);
        parked && out.is_empty()
    }

    #[test]
    fn create_ctl_wait_round_trip_on_pipes() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, r as u64)
            .unwrap();
        // Nothing ready yet.
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        // Data arrives: level-triggered readiness until drained.
        k.sys_write(tid, w, b"x").unwrap();
        let ready = k.sys_epoll_wait_ready(tid, ep, 8).unwrap();
        assert_eq!(ready, vec![(EPOLLIN, r as u64)]);
        let ready = k.sys_epoll_wait_ready(tid, ep, 8).unwrap();
        assert_eq!(ready.len(), 1, "level-triggered: still ready");
        let mut buf = [0u8; 4];
        k.sys_read(tid, r, &mut buf).unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
    }

    #[test]
    fn ctl_errors_match_linux() {
        let (mut k, tid) = kp();
        let (r, _w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        // MOD/DEL before ADD: ENOENT.
        assert_eq!(
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_MOD, r, EPOLLIN, 0),
            Err(SysError::Err(Errno::Enoent))
        );
        assert_eq!(
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_DEL, r, 0, 0),
            Err(SysError::Err(Errno::Enoent))
        );
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0)
            .unwrap();
        // Double ADD: EEXIST.
        assert_eq!(
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0),
            Err(SysError::Err(Errno::Eexist))
        );
        // Bad target fd: EBADF; epoll-in-epoll: ELOOP.
        assert_eq!(
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, 99, EPOLLIN, 0),
            Err(SysError::Err(Errno::Ebadf))
        );
        let ep2 = k.sys_epoll_create1(tid, 0).unwrap();
        assert_eq!(
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, ep2, EPOLLIN, 0),
            Err(SysError::Err(Errno::Eloop))
        );
        // Not an epoll fd: EINVAL.
        assert_eq!(
            k.sys_epoll_ctl(tid, r, EPOLL_CTL_ADD, ep, EPOLLIN, 0),
            Err(SysError::Err(Errno::Einval))
        );
    }

    #[test]
    fn listener_readiness_reports_epollin_on_pending_accept() {
        let (mut k, tid) = kp();
        let srv = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        let addr = WaliSockaddr::Inet {
            addr: [127, 0, 0, 1],
            port: 9090,
        };
        k.sys_bind(tid, srv, addr.clone()).unwrap();
        k.sys_listen(tid, srv, 8).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, srv, EPOLLIN, 7)
            .unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        let cli = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        k.sys_connect(tid, cli, addr).unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 7)]
        );
    }

    #[test]
    fn closed_fd_is_swept_from_interest() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 1)
            .unwrap();
        k.sys_write(tid, w, b"y").unwrap();
        k.sys_close(tid, r).unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        // The registration is gone: MOD now reports ENOENT (slot reused
        // by a fresh pipe).
        let (r2, _w2) = k.sys_pipe2(tid, 0).unwrap();
        assert_eq!(r2, r, "lowest slot reused");
        assert_eq!(
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_MOD, r2, EPOLLIN, 2),
            Err(SysError::Err(Errno::Enoent))
        );
    }

    #[test]
    fn registration_survives_fd_close_while_a_dup_is_open() {
        // man epoll Q6: closing the registered fd does not drop the
        // registration while a duplicate keeps the description open.
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0xCAFE)
            .unwrap();
        let dup = k.sys_dup(tid, r).unwrap() as i32;
        k.sys_close(tid, r).unwrap();
        k.sys_write(tid, w, b"x").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 0xCAFE)],
            "description alive via the dup: still reported"
        );
        // Last duplicate closes: the registration is swept.
        k.sys_close(tid, dup).unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
    }

    #[test]
    fn reused_fd_slot_coexists_with_a_dup_kept_registration() {
        // Linux keys registrations by (fd, description) pair: after the
        // registered fd is closed but kept alive by a dup, the reused fd
        // number can be registered for the *new* description and both
        // registrations report independently.
        let (mut k, tid) = kp();
        let (ra, wa) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, ra, EPOLLIN, 0xA)
            .unwrap();
        let _dup = k.sys_dup(tid, ra).unwrap() as i32;
        k.sys_close(tid, ra).unwrap();
        // Pipe B reuses fd slot `ra`.
        let (rb, wb) = k.sys_pipe2(tid, 0).unwrap();
        assert_eq!(rb, ra);
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, rb, EPOLLIN, 0xB)
            .unwrap();
        k.sys_write(tid, wa, b"a").unwrap();
        k.sys_write(tid, wb, b"b").unwrap();
        let ready = k.sys_epoll_wait_ready(tid, ep, 8).unwrap();
        assert_eq!(
            ready,
            vec![(EPOLLIN, 0xA), (EPOLLIN, 0xB)],
            "both pairs live"
        );
    }

    #[test]
    fn reused_fd_slot_does_not_inherit_a_stale_registration() {
        // Close a registered fd, reuse its slot with a *ready* file, and
        // scan: the stale registration must not report the new file
        // under the old data cookie.
        let (mut k, tid) = kp();
        let (r, _w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0xAAAA)
            .unwrap();
        k.sys_close(tid, r).unwrap();
        // Reuse the slot with a pipe that has readable data.
        let (r2, w2) = k.sys_pipe2(tid, 0).unwrap();
        assert_eq!(r2, r, "lowest slot reused");
        k.sys_write(tid, w2, b"new").unwrap();
        assert!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty(),
            "stale registration must be swept, not matched to the new file"
        );
        // The new description can be registered fresh (ADD, not EEXIST).
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r2, EPOLLIN, 0xBBBB)
            .unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 0xBBBB)]
        );
    }

    #[test]
    fn hangup_is_reported_without_interest() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, 0, 5).unwrap();
        k.sys_close(tid, w).unwrap();
        let ready = k.sys_epoll_wait_ready(tid, ep, 8).unwrap();
        assert_eq!(ready.len(), 1);
        assert_ne!(ready[0].0 & EPOLLHUP, 0);
    }

    #[test]
    fn epoll_subscribe_parks_on_interest_channels_and_write_wakes() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0)
            .unwrap();
        assert!(park(&mut k, tid, ep), "nothing ready: parked");
        assert!(k.task_waits(tid));
        k.sys_write(tid, w, b"wake").unwrap();
        let mut woken = Vec::new();
        k.drain_woken(&mut woken);
        assert_eq!(woken, vec![tid]);
        assert!(!k.task_waits(tid), "wake clears all subscriptions");
        // Channel bookkeeping: nothing dangling.
        let _ = Channel::PipeReadable(0);
    }

    #[test]
    fn edge_triggered_reports_once_per_rising_edge() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN | EPOLLET, 9)
            .unwrap();
        k.sys_write(tid, w, b"x").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 9)],
            "rising edge reported"
        );
        // Regression: unread data must NOT re-notify an ET registration.
        assert!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty(),
            "no spurious re-notification while the level stays high"
        );
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        // Drain (edge re-arms once observed clear), then write again.
        let mut buf = [0u8; 4];
        k.sys_read(tid, r, &mut buf).unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        k.sys_write(tid, w, b"y").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 9)],
            "next rising edge reported again"
        );
    }

    #[test]
    fn edge_triggered_rearms_on_new_data_between_scans() {
        // Regression (SMP review): data written between a drain and the
        // next scan must re-notify an ET registration even though every
        // scan observed the level high — Linux ET re-arms on the new
        // event, not on an observed-clear scan. Without the generation
        // re-arm the waiter would park forever.
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN | EPOLLET, 1)
            .unwrap();
        k.sys_write(tid, w, b"a").unwrap();
        assert_eq!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().len(), 1);
        // Drain, then new data arrives BEFORE any scan observes the
        // level clear.
        let mut buf = [0u8; 1];
        k.sys_read(tid, r, &mut buf).unwrap();
        k.sys_write(tid, w, b"b").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 1)],
            "new transition re-arms the edge"
        );
        // And new data while STILL ready also re-notifies (Linux ET).
        k.sys_write(tid, w, b"c").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 1)],
            "new data re-arms even while the level stays high"
        );
        // No new transition: stays quiet.
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
    }

    #[test]
    fn edge_triggered_is_unaffected_by_a_recycled_slab_id() {
        // Generations die with their object. A pipe that reuses the slab
        // id of a heavily posted, closed pipe starts from generation
        // zero, and an ET registration on it behaves like any fresh one:
        // it neither inherits an edge nor loses one.
        let (mut k, tid) = kp();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN | EPOLLET, 1)
            .unwrap();
        for _ in 0..5 {
            k.sys_write(tid, w, b"x").unwrap();
            assert_eq!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().len(), 1);
        }
        let id = match k
            .task(tid)
            .unwrap()
            .fdtable
            .lock_ok()
            .get(r)
            .unwrap()
            .file
            .kind
        {
            FileKind::PipeRead(ref pipe) => pipe.id,
            ref other => panic!("{other:?}"),
        };
        assert!(k.waits.lock().generation(Channel::PipeReadable(id)) >= 5);
        k.sys_close(tid, r).unwrap();
        k.sys_close(tid, w).unwrap();
        assert_eq!(k.waits.lock().generation(Channel::PipeReadable(id)), 0);
        assert_eq!(k.waits.lock().generation(Channel::PipeWritable(id)), 0);
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());

        let (r2, w2) = k.sys_pipe2(tid, 0).unwrap();
        assert_eq!((r2, w2), (r, w), "same fds, same slab slot");
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r2, EPOLLIN | EPOLLET, 2)
            .unwrap();
        assert!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty(),
            "no edge inherited from the previous owner"
        );
        k.sys_write(tid, w2, b"a").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 2)]
        );
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        // New data while still ready re-arms, exactly as on a first-use id.
        k.sys_write(tid, w2, b"b").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 2)]
        );
        assert_eq!(k.leak_audit().wait_heads, 0);
    }

    #[test]
    fn level_triggered_still_re_reports() {
        // The ET change must not leak into default registrations.
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 1)
            .unwrap();
        k.sys_write(tid, w, b"x").unwrap();
        for _ in 0..3 {
            assert_eq!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().len(), 1);
        }
    }

    #[test]
    fn oneshot_disarms_until_ctl_mod_rearms() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN | EPOLLONESHOT, 3)
            .unwrap();
        k.sys_write(tid, w, b"x").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 3)]
        );
        // Regression: a fired ONESHOT registration must stay silent even
        // with the level still high and across further writes.
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        k.sys_write(tid, w, b"more").unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        // Disarmed registrations contribute no wait channels either.
        assert!(park(&mut k, tid, ep));
        assert!(k.task_waits(tid), "still parked in the instance");
        k.wait_cancel(tid);
        // MOD re-arms; the pending level is reported again.
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_MOD, r, EPOLLIN | EPOLLONESHOT, 4)
            .unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 4)]
        );
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
    }

    #[test]
    fn oneshot_edge_combo_reports_exactly_once() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(
            tid,
            ep,
            EPOLL_CTL_ADD,
            r,
            EPOLLIN | EPOLLET | EPOLLONESHOT,
            7,
        )
        .unwrap();
        k.sys_write(tid, w, b"x").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 7)]
        );
        let mut buf = [0u8; 1];
        k.sys_read(tid, r, &mut buf).unwrap();
        k.sys_write(tid, w, b"y").unwrap();
        assert!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty(),
            "new edge suppressed while disarmed"
        );
    }

    #[test]
    fn epoll_fd_is_pollable() {
        use wali_abi::flags::POLLIN;
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0)
            .unwrap();
        assert_eq!(k.poll_check(tid, &[(ep, POLLIN)]).unwrap(), vec![0]);
        k.sys_write(tid, w, b"z").unwrap();
        assert_eq!(k.poll_check(tid, &[(ep, POLLIN)]).unwrap(), vec![POLLIN]);
    }

    /// `poll` on an epoll fd is a pure peek (Linux): it must not eat the
    /// event the following `epoll_wait` is owed.
    fn poll_on_epfd_leaves_the_event(extra: u32) {
        use wali_abi::flags::POLLIN;
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN | extra, 0x5EE)
            .unwrap();
        k.sys_write(tid, w, b"x").unwrap();
        assert_eq!(k.poll_check(tid, &[(ep, POLLIN)]).unwrap(), vec![POLLIN]);
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 0x5EE)]
        );
    }

    #[test]
    fn poll_on_epfd_does_not_consume_an_et_edge() {
        poll_on_epfd_leaves_the_event(EPOLLET);
    }

    #[test]
    fn poll_on_epfd_does_not_disarm_a_oneshot() {
        poll_on_epfd_leaves_the_event(EPOLLONESHOT);
    }

    // --- Adversarial ready-ring cases -----------------------------------

    #[test]
    fn ctl_del_with_a_queued_ready_entry_drops_it() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0xD)
            .unwrap();
        // The write queues a ring entry — then the registration is
        // deleted before anyone pops it.
        k.sys_write(tid, w, b"x").unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_DEL, r, 0, 0).unwrap();
        assert!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty(),
            "stale queued entry for a deleted registration must not report"
        );
        // The hub wiring went with the registration.
        assert_eq!(k.leak_audit().hub_watchers, 0);
    }

    #[test]
    fn ctl_mod_racing_a_pending_push_reports_the_new_mask() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 1)
            .unwrap();
        // Queue a push for EPOLLIN, then narrow the mask to
        // hangup-only before the pop: the queued entry re-verifies
        // against the *current* mask and reports nothing.
        k.sys_write(tid, w, b"x").unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_MOD, r, 0, 2).unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        // Widen it back: the still-buffered byte reports under the
        // new cookie.
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_MOD, r, EPOLLIN, 3)
            .unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 3)]
        );
    }

    #[test]
    fn et_rearm_is_observed_through_ring_pops_alone() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN | EPOLLET, 7)
            .unwrap();
        k.sys_write(tid, w, b"a").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 7)]
        );
        assert!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty(),
            "edge consumed; no level re-report"
        );
        // New data without draining: a fresh edge must re-arm purely
        // via the transition push — no interest scan runs to notice it
        // as a side effect.
        k.sys_write(tid, w, b"b").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 7)]
        );
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
    }

    #[test]
    fn oneshot_rearm_after_a_stale_ring_entry() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN | EPOLLONESHOT, 11)
            .unwrap();
        k.sys_write(tid, w, b"a").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 11)]
        );
        // Disarmed: further transitions must neither report nor
        // resurrect the registration via a stale queued entry.
        k.sys_write(tid, w, b"b").unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        // MOD re-arms while data is still buffered: exactly one
        // report, then disarmed again.
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_MOD, r, EPOLLIN | EPOLLONESHOT, 12)
            .unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 12)]
        );
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
    }

    #[test]
    fn oneshot_rearm_with_an_undrained_queued_entry_reports_once() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN | EPOLLONESHOT, 21)
            .unwrap();
        // Push queued but never popped; MOD re-arms on top of it
        // (the re-arm probe pushes again — the queued flag must
        // dedupe, not double-report).
        k.sys_write(tid, w, b"a").unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_MOD, r, EPOLLIN | EPOLLONESHOT, 22)
            .unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 22)]
        );
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
    }

    #[test]
    fn dup_kept_description_keeps_its_ring_wiring() {
        // man epoll Q6 through the ring: the registration (and its hub
        // wiring) follows the description, not the fd number.
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 0x96u64)
            .unwrap();
        let dup = k.sys_dup(tid, r).unwrap() as i32;
        k.sys_close(tid, r).unwrap();
        // The transition arrives *after* the registered fd closed:
        // the push must still route via the dup-kept description.
        k.sys_write(tid, w, b"x").unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLIN, 0x96u64)]
        );
        // Last holder closes: the sweep unhooks the hub wiring.
        k.sys_close(tid, dup).unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        assert_eq!(k.leak_audit().hub_watchers, 0);
    }

    #[test]
    fn closing_the_epoll_fd_unhooks_all_hub_wiring() {
        let (mut k, tid) = kp();
        let mut pipes = Vec::new();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        for i in 0..8 {
            let (r, w) = k.sys_pipe2(tid, 0).unwrap();
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, i)
                .unwrap();
            pipes.push((r, w));
        }
        k.sys_close(tid, ep).unwrap();
        assert_eq!(
            k.leak_audit().hub_watchers,
            0,
            "release_epoll must unregister every channel route"
        );
        // Transitions after release must not touch the freed slot.
        for &(_, w) in &pipes {
            k.sys_write(tid, w, b"x").unwrap();
        }
    }

    #[test]
    fn a_ring_park_waits_in_the_instance_whatever_the_interest_size() {
        let (mut k, tid) = kp();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        let mut writers = Vec::new();
        for i in 0..32 {
            let (r, w) = k.sys_pipe2(tid, 0).unwrap();
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, i)
                .unwrap();
            writers.push(w);
        }
        let before = k.wait_stats().subscribes;
        assert!(park(&mut k, tid, ep));
        assert_eq!(
            k.wait_stats().subscribes - before,
            0,
            "one entry in the instance and the signal bit: no channel"
        );
        let instance = k.epoll_of(tid, ep).unwrap();
        assert_eq!(instance.lock_ok().waiters.len(), 1);
        // And that suffices: any member's transition wakes.
        k.sys_write(tid, writers[17], b"x").unwrap();
        let mut woken = Vec::new();
        k.drain_woken(&mut woken);
        assert_eq!(woken, vec![tid]);
    }

    /// A signal ends a wait in the instance for good: once its task has
    /// parked elsewhere, a push onto the old instance wakes nobody — the
    /// entry it left there is stale.
    #[test]
    fn a_waiter_a_signal_woke_is_not_woken_by_its_old_instance() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let (r2, w2) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 1)
            .unwrap();
        assert!(park(&mut k, tid, ep));
        k.sys_kill(tid, tid, 28).unwrap(); // SIGWINCH: ignored, but it wakes
        let mut woken = Vec::new();
        k.drain_woken(&mut woken);
        assert_eq!(woken, vec![tid]);
        assert_eq!(k.next_signal(tid), None, "delivered: ignored");
        let mut buf = [0u8; 1];
        assert!(matches!(
            k.sys_read(tid, r2, &mut buf),
            Err(SysError::Block(_))
        ));
        k.sys_write(tid, w, b"x").unwrap();
        k.drain_woken(&mut woken);
        assert_eq!(woken, vec![tid], "the push woke nobody");
        k.sys_write(tid, w2, b"y").unwrap();
        k.drain_woken(&mut woken);
        assert_eq!(woken, vec![tid, tid], "the read's own post did");
        assert!(!k.task_waits(tid));
    }

    // --- The one-hold pop ------------------------------------------------

    /// A pop consumes what it reports and nothing else: with room for
    /// two reports it takes two edges and leaves the third queued, so an
    /// embedder that checked a two-event buffer before popping loses
    /// nothing to a fault — and a buffer it could not check is never
    /// popped for (`wali`'s `epoll_wait` answers `-EFAULT` first).
    #[test]
    fn a_pop_consumes_only_the_edges_it_has_room_to_report() {
        let (mut k, tid) = kp();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        let mut writers = Vec::new();
        for i in 0..3 {
            let (r, w) = k.sys_pipe2(tid, 0).unwrap();
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN | EPOLLET, i)
                .unwrap();
            writers.push(w);
        }
        for &w in &writers {
            k.sys_write(tid, w, b"x").unwrap();
        }
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 2).unwrap(),
            vec![(EPOLLIN, 0), (EPOLLIN, 1)]
        );
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 2).unwrap(),
            vec![(EPOLLIN, 2)],
            "the edge past the budget was neither reported nor consumed"
        );
        assert!(k.sys_epoll_wait_ready(tid, ep, 2).unwrap().is_empty());
    }

    #[test]
    fn a_pop_that_reports_nothing_parks_in_the_same_hold() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 4)
            .unwrap();
        let hold = k.epoll_hold(tid, ep).unwrap();
        let mut out = Vec::new();
        // Not asked to park: nothing found, nothing subscribed.
        assert!(!k.epoll_wait(tid, &hold, 8, false, &mut out));
        assert!(!k.task_waits(tid));
        let before = k.wait_stats().subscribes;
        assert!(k.epoll_wait(tid, &hold, 8, true, &mut out));
        assert_eq!(k.wait_stats().subscribes, before, "parked in the instance");
        assert!(k.task_waits(tid));
        k.sys_write(tid, w, b"x").unwrap();
        let mut woken = Vec::new();
        k.drain_woken(&mut woken);
        assert_eq!(woken, vec![tid]);
        // With something to report there is no park to make.
        assert!(!k.epoll_wait(tid, &hold, 8, true, &mut out));
        assert_eq!(out, vec![(EPOLLIN, 4)]);
        assert!(!k.task_waits(tid));
        k.epoll_release(hold);
    }

    /// A hold keeps the description, so the instance outlives its last
    /// descriptor for as long as a blocked call keeps it — still wired,
    /// still waking — and goes when the hold does.
    #[test]
    fn a_hold_keeps_the_instance_alive_and_wired_past_its_last_descriptor() {
        let (mut k, tid) = kp();
        let (r, w) = k.sys_pipe2(tid, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 6)
            .unwrap();
        let hold = k.epoll_hold(tid, ep).unwrap();
        let mut out = Vec::new();
        assert!(k.epoll_wait(tid, &hold, 8, true, &mut out));
        k.sys_close(tid, ep).unwrap();
        assert_eq!(k.leak_audit().open_epolls, 1, "kept by the hold");
        // The number goes to something else; the waiter is not confused.
        assert_eq!(k.sys_dup(tid, r).unwrap() as i32, ep);
        k.sys_write(tid, w, b"x").unwrap();
        let mut woken = Vec::new();
        k.drain_woken(&mut woken);
        assert_eq!(woken, vec![tid], "the old instance's event still routes");
        assert!(!k.epoll_wait(tid, &hold, 8, true, &mut out));
        assert_eq!(out, vec![(EPOLLIN, 6)]);
        k.epoll_release(hold);
        let audit = k.leak_audit();
        assert_eq!((audit.open_epolls, audit.hub_watchers), (0, 0));
    }

    /// A socket registered for output before it connects watches two
    /// channels and, connected, three (its peer's space). The pop that
    /// notices re-wires the hub once its hold of the instance is over,
    /// and the registration keeps reporting.
    #[test]
    fn a_pop_rewires_a_registration_whose_channels_changed() {
        let (mut k, tid) = kp();
        let srv = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        let addr = WaliSockaddr::Inet {
            addr: [127, 0, 0, 1],
            port: 9191,
        };
        k.sys_bind(tid, srv, addr.clone()).unwrap();
        k.sys_listen(tid, srv, 8).unwrap();
        let cli = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, cli, EPOLLOUT, 3)
            .unwrap();
        assert_eq!(k.leak_audit().hub_watchers, 2);
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        k.sys_connect(tid, cli, addr).unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLOUT, 3)]
        );
        assert_eq!(k.leak_audit().hub_watchers, 3, "the peer's space channel");
        // Fill the peer's buffer: not writable; the peer draining it is
        // a transition on the newly watched channel alone.
        let conn = k.sys_accept(tid, srv, 0).unwrap();
        let full = vec![0u8; crate::socket::SOCK_BUF_SIZE];
        assert_eq!(k.sys_write(tid, cli, &full), Ok(full.len() as i64));
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        let mut sink = full;
        k.sys_read(tid, conn, &mut sink).unwrap();
        assert_eq!(
            k.sys_epoll_wait_ready(tid, ep, 8).unwrap(),
            vec![(EPOLLOUT, 3)],
            "routed through the re-wired channel"
        );
        // The peer goes: back to the socket's own two channels.
        k.sys_close(tid, conn).unwrap();
        let _ = k.sys_epoll_wait_ready(tid, ep, 8).unwrap();
        assert_eq!(k.leak_audit().hub_watchers, 2);
        k.sys_close(tid, cli).unwrap();
        assert!(k.sys_epoll_wait_ready(tid, ep, 8).unwrap().is_empty());
        assert_eq!(k.leak_audit().hub_watchers, 0, "swept with its description");
    }
}
