//! What one call costs in locks, shape by shape, at the `Kernel` API.
//!
//! `crates/wali/tests/locks_per_crossing.rs` prices whole requests at
//! the runner; this file isolates the calls a request is made of, which
//! a guest cannot (an `accept` that parks, a `close` after the peer is
//! gone). The counter is `vkernel::lockorder`'s debug-build
//! thread-local: every tracked mutex, the VFS shard, every
//! `MutexExt::lock_ok`. The test calls the kernel directly, so there is
//! no kernel lock in these numbers — a guest pays one more for every
//! call that is not `read`/`write` (`locks_per_crossing.rs`).
//!
//! Each shape is asserted as `(locks, of which pipe/socket locks)`: the
//! second number is the "each object once" rule — one per socket the
//! call touches, `connect` alone coming back to its client to commit.
//! No call takes a description's lock to learn what it refers to or
//! whether it is `O_NONBLOCK`: the lock guards the offset and an
//! eventfd's counter only. The "was" column is the same file run
//! against commit `75d73ce`, where every socket touch also went through
//! a slab table's lock; "then" is the file before the description lock
//! shrank to what changes.
#![cfg(debug_assertions)]

use vkernel::lockorder::{acquisitions, acquisitions_of};
use vkernel::{Kernel, LockClass, SysError, Tid};
use wali_abi::flags::{
    AF_INET, AF_UNIX, EPOLLIN, EPOLL_CTL_ADD, O_CREAT, O_RDWR, SEEK_CUR, SEEK_END, SEEK_SET,
    SOCK_STREAM,
};
use wali_abi::layout::WaliSockaddr;

fn kp() -> (Kernel, Tid) {
    let mut k = Kernel::new();
    let tid = k.spawn_process();
    (k, tid)
}

fn loopback(port: u16) -> WaliSockaddr {
    WaliSockaddr::Inet {
        addr: [127, 0, 0, 1],
        port,
    }
}

fn listener(k: &mut Kernel, tid: Tid, port: u16) -> i32 {
    let srv = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
    k.sys_bind(tid, srv, loopback(port)).unwrap();
    k.sys_listen(tid, srv, 8).unwrap();
    srv
}

/// A connected pair over loopback: `(listener, client, accepted)`.
fn connection(k: &mut Kernel, tid: Tid, port: u16) -> (i32, i32, i32) {
    let srv = listener(k, tid, port);
    let cli = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
    k.sys_connect(tid, cli, loopback(port)).unwrap();
    let conn = k.sys_accept(tid, srv, 0).unwrap();
    (srv, cli, conn)
}

/// `(all locks, pipe/socket locks)` that `f` takes on this thread.
fn locks<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let (all, objects) = (acquisitions(), acquisitions_of(LockClass::Object));
    let r = f();
    (
        acquisitions() - all,
        acquisitions_of(LockClass::Object) - objects,
        r,
    )
}

fn parks<T: std::fmt::Debug>(r: Result<T, SysError>) {
    assert!(
        matches!(r, Err(SysError::Block(_))),
        "expected a park: {r:?}"
    );
}

#[test]
fn accept_takes_the_fd_table_the_listener_and_the_new_fd() {
    let (mut k, tid) = kp();
    let srv = listener(&mut k, tid, 7000);
    // Parks: fd table, the pending-signal set (asked only because the
    // call is about to park), listener, waitqueue. Was 10, then 5.
    let (n, objects, r) = locks(|| k.sys_accept(tid, srv, 0));
    parks(r);
    assert_eq!((n, objects), (4, 1), "accept that parks");
    let cli = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
    k.sys_connect(tid, cli, loopback(7000)).unwrap();
    // Pending: fd table, listener, fd table (the new descriptor). Was
    // 10, then 4.
    let (n, objects, r) = locks(|| k.sys_accept(tid, srv, 0));
    r.unwrap();
    assert_eq!((n, objects), (3, 1), "accept with a pending connection");
}

#[test]
fn connect_locks_the_client_twice_and_everything_else_once() {
    let (mut k, tid) = kp();
    let srv = listener(&mut k, tid, 7001);
    let cli = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
    // fd table, client (may it connect), listener (room? then queue),
    // client (connected), waitqueue (three posts). Was 16, then 6.
    let (n, objects, r) = locks(|| k.sys_connect(tid, cli, loopback(7001)));
    r.unwrap();
    assert_eq!((n, objects), (5, 3), "connect");
    // One epoll instance watching the listener: the hub and the
    // instance's ring, once each. Was 22, then 8.
    let ep = k.sys_epoll_create1(tid, 0).unwrap();
    k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, srv, EPOLLIN, 1)
        .unwrap();
    let cli = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
    let (n, objects, r) = locks(|| k.sys_connect(tid, cli, loopback(7001)));
    r.unwrap();
    assert_eq!((n, objects), (7, 3), "connect under one epoll watcher");
}

#[test]
fn a_stream_read_holds_its_socket_once_whatever_it_finds() {
    let (mut k, tid) = kp();
    let (_srv, cli, conn) = connection(&mut k, tid, 7002);
    let mut buf = [0u8; 16];
    // Parks: fd table, pending signals, socket, waitqueue. Was 12,
    // then 5.
    let (n, objects, r) = locks(|| k.sys_read(tid, conn, &mut buf));
    parks(r);
    assert_eq!((n, objects), (4, 1), "read that parks");
    // Room: fd table, own socket, peer, waitqueue. Was 7, then 5.
    let (n, objects, r) = locks(|| k.sys_write(tid, cli, b"ping"));
    assert_eq!(r, Ok(4));
    assert_eq!((n, objects), (4, 2), "write with room");
    // Bytes: fd table, socket, waitqueue. Was 5, then 4.
    let (n, objects, r) = locks(|| k.sys_read(tid, conn, &mut buf));
    assert_eq!(r, Ok(4));
    assert_eq!((n, objects), (3, 1), "read with bytes");
    k.sys_close(tid, cli).unwrap();
    // EOF: fd table, socket. Was 9, then 3.
    let (n, objects, r) = locks(|| k.sys_read(tid, conn, &mut buf));
    assert_eq!(r, Ok(0));
    assert_eq!((n, objects), (2, 1), "read at EOF");
}

#[test]
fn close_of_a_connection_locks_each_end_once_and_posts_once() {
    let (mut k, tid) = kp();
    let (_srv, cli, conn) = connection(&mut k, tid, 7003);
    // fd table, own socket, peer, waitqueue (four posts, two dead
    // heads). Was 17.
    let (n, objects, r) = locks(|| k.sys_close(tid, cli));
    r.unwrap();
    assert_eq!((n, objects), (4, 2), "close of a connected socket");
    // The peer is gone: no second socket. Was 13.
    let (n, objects, r) = locks(|| k.sys_close(tid, conn));
    r.unwrap();
    assert_eq!((n, objects), (3, 1), "close after the peer is gone");
    // A duplicate's close releases nothing.
    let (a, _b) = k.sys_socketpair(tid, AF_UNIX, SOCK_STREAM).unwrap();
    let dup = k.sys_dup(tid, a).unwrap() as i32;
    let (n, objects, r) = locks(|| k.sys_close(tid, dup));
    r.unwrap();
    assert_eq!((n, objects), (1, 0), "close of a duplicate");
}

#[test]
fn a_pipe_call_takes_three_locks() {
    let (mut k, tid) = kp();
    let (r, w) = k.sys_pipe2(tid, 0).unwrap();
    let mut buf = [0u8; 8];
    // fd table, pipe, waitqueue. Was 6 (the slab lookup, and the
    // pending-signal set of a call that does not park), then 4 (the
    // description, for its access mode and `O_NONBLOCK`).
    let (n, objects, res) = locks(|| k.sys_write(tid, w, b"x"));
    assert_eq!(res, Ok(1));
    assert_eq!((n, objects), (3, 1), "pipe write");
    let (n, objects, res) = locks(|| k.sys_read(tid, r, &mut buf));
    assert_eq!(res, Ok(1));
    assert_eq!((n, objects), (3, 1), "pipe read");
}

#[test]
fn an_epoll_pop_probes_a_ready_listener_with_one_hold_of_each() {
    let (mut k, tid) = kp();
    let srv = listener(&mut k, tid, 7004);
    let ep = k.sys_epoll_create1(tid, 0).unwrap();
    k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, srv, EPOLLIN, 9)
        .unwrap();
    let cli = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
    k.sys_connect(tid, cli, loopback(7004)).unwrap();
    // fd table, the instance — drain, verify and re-queue in one hold —
    // and under it the listener, reached by the handle the registration
    // was armed with. Was 6: the instance twice (drain, apply) and the
    // listener's description; 9 before that; then 4, with the epoll
    // description's lock.
    let (n, objects, r) = locks(|| k.sys_epoll_wait_ready(tid, ep, 8));
    assert_eq!(r.unwrap(), vec![(EPOLLIN, 9)]);
    assert_eq!((n, objects), (3, 1), "epoll pop, one ready listener");
    // Nothing queued: fd table, instance.
    let conn = k.sys_accept(tid, srv, 0).unwrap();
    let _ = (conn, k.sys_epoll_wait_ready(tid, ep, 8).unwrap());
    let (n, objects, r) = locks(|| k.sys_epoll_wait_ready(tid, ep, 8));
    assert!(r.unwrap().is_empty());
    assert_eq!((n, objects), (2, 0), "epoll pop, empty ring");
}

/// The cycle a herd pays per worker and connection: the connection's
/// post pushes onto the worker's ring and takes it off the instance, a
/// sibling takes the connection, the woken worker pops its one
/// candidate, finds it drained and parks again — by the instance it
/// kept, so nothing is looked up, and in the instance, so the waitqueue
/// is not taken.
#[test]
fn a_wake_that_finds_nothing_costs_the_push_and_a_two_lock_pop() {
    let (mut k, tid) = kp();
    let srv = listener(&mut k, tid, 7005);
    let ep = k.sys_epoll_create1(tid, 0).unwrap();
    k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, srv, EPOLLIN, 9)
        .unwrap();
    let hold = k.epoll_hold(tid, ep).unwrap();
    let mut out = Vec::new();
    // Empty ring, so the park is all there is: the instance, where the
    // waiter parks — its signal interest is a bit of its own. Was 2:
    // the waitqueue under the instance, for the `EpollReady` and
    // `Signal` subscriptions.
    let (n, objects, parked) = locks(|| k.epoll_wait(tid, &hold, 8, true, &mut out));
    assert_eq!((parked, out.len()), (true, 0));
    assert_eq!((n, objects), (1, 0), "park on an empty ring");
    // The connection: `connect`'s own five, the hub, the instance (the
    // push, which takes the waiter with it) — and the wake is done under
    // the waitqueue hold the call already has. The same as without the
    // waiter.
    let cli = k.sys_socket(tid, AF_INET, SOCK_STREAM, 0).unwrap();
    let (n, objects, r) = locks(|| k.sys_connect(tid, cli, loopback(7005)));
    r.unwrap();
    assert_eq!((n, objects), (7, 3), "ring push + wake of one waiter");
    let mut woken = Vec::new();
    k.drain_woken(&mut woken);
    assert_eq!(woken, vec![tid]);
    // A sibling wins the connection; the retry pops the candidate under
    // the instance, looks at the listener, reports nothing and parks
    // before it lets go: instance, listener. Was 3 (the waitqueue, for
    // the park), then 8 before that — the fd table and the epoll
    // description (`epoll_of`, on every retry), the instance three
    // times (drain, apply, the re-pop after subscribing), the
    // listener's description, the listener, the waitqueue — plus two
    // in the scheduler's park.
    let _conn = k.sys_accept(tid, srv, 0).unwrap();
    let (n, objects, parked) = locks(|| k.epoll_wait(tid, &hold, 8, true, &mut out));
    assert_eq!((parked, out.len()), (true, 0));
    assert_eq!(
        (n, objects),
        (2, 1),
        "pop that finds its one candidate drained, then parks"
    );
    assert!(k.task_waits(tid));
    k.wait_cancel(tid);
    // Giving the instance back costs nothing while a descriptor names it.
    let (n, _, ()) = locks(|| k.epoll_release(hold));
    assert_eq!(n, 0, "release of a hold that is not the last reference");
}

#[test]
fn a_regular_file_call_locks_no_description_only_it_names() {
    let (mut k, tid) = kp();
    let fd = k
        .sys_openat(tid, -100, "/tmp/budget.dat", O_CREAT | O_RDWR, 0o644)
        .unwrap();
    let mut buf = [0u8; 8];
    // A transfer: fd table, VFS. The description is borrowed from a
    // table no other task uses and no other descriptor names it, so the
    // offset moves without its lock (Linux's `fdget_pos`). Was 3.
    let (n, _, r) = locks(|| k.sys_write(tid, fd, b"12345678"));
    assert_eq!((n, r), (2, Ok(8)), "write");
    k.sys_lseek(tid, fd, 0, 0).unwrap();
    let (n, _, r) = locks(|| k.sys_read(tid, fd, &mut buf));
    assert_eq!((n, r), (2, Ok(8)), "read");
    // `fstat` reads no offset, `pread64` moves none, `lseek` needs the
    // size only from `SEEK_END`.
    let (n, _, r) = locks(|| k.sys_fstat(tid, fd).map(|s| s.st_size));
    assert_eq!((n, r), (2, Ok(8)), "fstat");
    let (n, _, r) = locks(|| k.sys_pread(tid, fd, &mut buf, 0));
    assert_eq!((n, r), (2, Ok(8)), "pread64");
    // Was 2 each, then 3.
    let (n, _, r) = locks(|| k.sys_lseek(tid, fd, 4, SEEK_SET));
    assert_eq!((n, r), (1, Ok(4)), "lseek(SEEK_SET)");
    let (n, _, r) = locks(|| k.sys_lseek(tid, fd, 0, SEEK_CUR));
    assert_eq!((n, r), (1, Ok(4)), "lseek(SEEK_CUR)");
    let (n, _, r) = locks(|| k.sys_lseek(tid, fd, -2, SEEK_END));
    assert_eq!((n, r), (2, Ok(6)), "lseek(SEEK_END)");
    let (n, _, r) = locks(|| k.sys_getpid(tid));
    assert_eq!(
        (n, r),
        (0, Ok(tid as i64)),
        "getpid (the runner adds the kernel lock)"
    );
}

/// A description another reference can reach keeps its lock: a `dup`
/// names it twice, a `fork` gives the child a table of its own that
/// names it, an epoll registration holds a weak reference it may
/// upgrade. Each call then pays the fd table, the description and the
/// VFS as before, and every descriptor sees one offset.
#[test]
fn a_shared_description_still_locks_its_offset() {
    let (mut k, tid) = kp();
    let fd = k
        .sys_openat(tid, -100, "/tmp/shared.dat", O_CREAT | O_RDWR, 0o644)
        .unwrap();
    let description = acquisitions_of(LockClass::Description);
    let (n, _, r) = locks(|| k.sys_write(tid, fd, b"abcd"));
    assert_eq!((n, r), (2, Ok(4)), "unshared write");
    assert_eq!(acquisitions_of(LockClass::Description), description);

    // A dup: both descriptors move one offset, under its lock.
    let dup = k.sys_dup(tid, fd).unwrap() as i32;
    let (n, _, r) = locks(|| k.sys_write(tid, dup, b"ef"));
    assert_eq!((n, r), (3, Ok(2)), "write through a dup");
    let (n, _, r) = locks(|| k.sys_lseek(tid, fd, 0, SEEK_CUR));
    assert_eq!((n, r), (2, Ok(6)), "the dup moved the shared offset");
    k.sys_close(tid, dup).unwrap();
    let (n, _, r) = locks(|| k.sys_lseek(tid, fd, 0, SEEK_CUR));
    assert_eq!((n, r), (1, Ok(6)), "the dup closed: unshared again");

    // A fork: parent and child share the description, and its offset.
    let child = k.sys_fork(tid).unwrap() as Tid;
    let (n, _, r) = locks(|| k.sys_write(child, fd, b"gh"));
    assert_eq!((n, r), (3, Ok(2)), "the child's write");
    let (n, _, r) = locks(|| k.sys_lseek(tid, fd, 0, SEEK_CUR));
    assert_eq!((n, r), (2, Ok(8)), "the parent sees the child's offset");
    let mut buf = [0u8; 8];
    k.sys_lseek(child, fd, 0, SEEK_SET).unwrap();
    let (n, _, r) = locks(|| k.sys_read(tid, fd, &mut buf));
    assert_eq!((n, r), (3, Ok(8)), "the parent reads from the child's seek");
    assert_eq!(&buf, b"abcdefgh");
    k.sys_exit_group(child, 0).unwrap();
    let (n, _, r) = locks(|| k.sys_lseek(tid, fd, 0, SEEK_SET));
    assert_eq!((n, r), (1, Ok(0)), "the child's table let go of it");

    // An epoll registration: the descriptor is the only one, but the
    // instance can reach the description.
    let ep = k.sys_epoll_create1(tid, 0).unwrap();
    k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, fd, EPOLLIN, 1)
        .unwrap();
    let (n, _, r) = locks(|| k.sys_lseek(tid, fd, 2, SEEK_SET));
    assert_eq!((n, r), (2, Ok(2)), "a watched description");
}
