//! C100K server bench: event-path scaling and framed-protocol serving
//! over 10k–100k virtual connections.
//!
//! Two measurement families, both driving the vkernel `Kernel` natively
//! (no interpreter in the loop — the subject is the event path itself):
//!
//! 1. **Wakeup flatness** (`c100k_wakeup`): one epoll instance with `N`
//!    registered socketpair connections; each iteration makes ~64 of
//!    them ready and drains the batch through `epoll_wait`. The ready
//!    ring's per-wakeup cost must stay flat as `N` grows 1k → 100k
//!    (asserted ≤ 2× on the full rows; the retired interest-list scan
//!    was linear in `N` — DESIGN.md "Retired baselines").
//!
//! 2. **Framed protocols** (`c100k_server`): memcached-shaped
//!    (length-prefixed get/set) and MQTT-shaped (CONNECT / PUBLISH /
//!    PINGREQ) request/reply serving over `N` connections with churn —
//!    disconnect storms (client close → EOF → deregister → replacement
//!    connect), half-closed peers (client `SHUT_WR` leaves a stale
//!    readiness push the ring must discard), and slow readers (replies
//!    are never drained; partial frames complete a round later).
//!    Reported per shape and size: serving cost (`ns_per_op`) and
//!    wakeup-to-reply latency percentiles (`p50/p99/p999`), measured
//!    from `epoll_wait` returning to the reply write completing.
//!
//! The 1k/10k rows always run; the 50k/100k rows are gated behind
//! `WALI_C100K_FULL=1` (CI runs them on the main branch only). Medians
//! land in `BENCH_PR9.json` via the shared `--json` trajectory path.

use std::time::Instant;

use bench::harness;
use vkernel::sync::MutexExt;
use vkernel::{Kernel, Tid};
use wali_abi::flags::{AF_UNIX, EPOLLIN, EPOLL_CTL_ADD, EPOLL_CTL_DEL, SHUT_WR, SOCK_STREAM};

/// First fd number handed to connections (low numbers stay free so the
/// transient socketpair allocations remain O(1)).
const FD_BASE: usize = 16;
/// Connections made ready per wakeup batch in the flatness group.
const READY_BATCH: usize = 64;
/// Connections touched per workload round.
const ROUND_FANOUT: usize = 256;
/// Workload rounds per protocol run.
const ROUNDS: usize = 200;

fn full_rows() -> bool {
    std::env::var_os("WALI_C100K_FULL").is_some_and(|v| v == "1")
}

#[derive(Clone, Copy, PartialEq)]
enum ConnState {
    Live,
    /// Client did `shutdown(SHUT_WR)`: registration stays, the hangup
    /// push is spurious (the kernel reports peer half-close only once
    /// the fd fully closes); recycled on the next touch.
    HalfClosed,
}

struct Conn {
    sfd: i32,
    cfd: i32,
    state: ConnState,
    /// Server-side partial-frame reassembly buffer.
    buf: Vec<u8>,
    /// Client-side unsent frame remainder (the slow-writer half).
    pending: Vec<u8>,
}

/// One virtual server: a kernel, a serving task, one epoll instance and
/// `n` established connections registered for `EPOLLIN`.
struct Server {
    k: Kernel,
    tid: Tid,
    ep: i32,
    conns: Vec<Conn>,
}

impl Server {
    fn new(n: usize) -> Server {
        let mut k = Kernel::new();
        let tid = k.spawn_process();
        k.task(tid).unwrap().fdtable.lock_ok().limit = FD_BASE + 2 * n + 64;
        let ep = k.sys_epoll_create1(tid, 0).unwrap();
        let mut s = Server {
            k,
            tid,
            ep,
            conns: Vec::with_capacity(n),
        };
        for i in 0..n {
            let c = s.open_conn(i);
            s.conns.push(c);
        }
        s
    }

    /// Establishes connection `i` at its fixed fd slots and registers
    /// the server side, cookie = connection index.
    fn open_conn(&mut self, i: usize) -> Conn {
        let (a, b) = self
            .k
            .sys_socketpair(self.tid, AF_UNIX, SOCK_STREAM)
            .unwrap();
        let sfd = (FD_BASE + 2 * i) as i32;
        let cfd = sfd + 1;
        self.k.sys_dup3(self.tid, a, sfd, 0).unwrap();
        self.k.sys_dup3(self.tid, b, cfd, 0).unwrap();
        self.k.sys_close(self.tid, a).unwrap();
        self.k.sys_close(self.tid, b).unwrap();
        self.k
            .sys_epoll_ctl(self.tid, self.ep, EPOLL_CTL_ADD, sfd, EPOLLIN, i as u64)
            .unwrap();
        Conn {
            sfd,
            cfd,
            state: ConnState::Live,
            buf: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Full disconnect of connection `i` followed by a replacement
    /// connect in the same slot (the churn storm element).
    fn recycle(&mut self, i: usize) {
        let (sfd, cfd) = (self.conns[i].sfd, self.conns[i].cfd);
        let _ = self
            .k
            .sys_epoll_ctl(self.tid, self.ep, EPOLL_CTL_DEL, sfd, 0, 0);
        let _ = self.k.sys_close(self.tid, cfd);
        let _ = self.k.sys_close(self.tid, sfd);
        self.conns[i] = self.open_conn(i);
    }
}

// --- wakeup flatness ---------------------------------------------------

/// One wakeup batch: make `READY_BATCH` spread-out connections ready,
/// then pop + drain them through the epoll. Returns bytes served.
fn wakeup_batch(s: &mut Server) -> usize {
    let step = (s.conns.len() / READY_BATCH).max(1);
    for j in 0..READY_BATCH {
        let cfd = s.conns[(j * step) % s.conns.len()].cfd;
        s.k.sys_write(s.tid, cfd, b"x").unwrap();
    }
    let mut got = 0usize;
    let mut buf = [0u8; 8];
    while got < READY_BATCH {
        let evs = s.k.sys_epoll_wait_ready(s.tid, s.ep, 128).unwrap();
        for &(_ev, data) in &evs {
            let sfd = s.conns[data as usize].sfd;
            got += s.k.sys_read(s.tid, sfd, &mut buf).unwrap() as usize;
        }
    }
    got
}

fn bench_wakeup(g: &mut harness::Group, sizes: &[usize]) -> Vec<(String, f64)> {
    let mut medians = Vec::new();
    for &n in sizes {
        let mut s = Server::new(n);
        let name = format!("ring/registered={n}");
        g.bench_function(&name, |b| b.iter(|| wakeup_batch(&mut s)));
        let (_, stats) = g.results().last().unwrap();
        medians.push((name, stats.median_ns));
    }
    medians
}

// --- framed protocols --------------------------------------------------

#[derive(Clone, Copy)]
enum Proto {
    /// `[u32 LE frame len][op b'G'|b'S'][8-byte key][value…]` requests;
    /// `[u32 LE len][payload]` replies.
    Memcached,
    /// `[type][remaining len][payload…]` control packets: CONNECT
    /// (0x10→CONNACK 0x20), PUBLISH (0x30→PUBACK 0x40), PINGREQ
    /// (0xC0→PINGRESP 0xD0).
    Mqtt,
}

impl Proto {
    fn name(self) -> &'static str {
        match self {
            Proto::Memcached => "memcached",
            Proto::Mqtt => "mqtt",
        }
    }

    /// Builds request `seq` for one connection.
    fn request(self, seq: u64, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Proto::Memcached => {
                let set = seq.is_multiple_of(3);
                let key = seq.to_le_bytes();
                let value = &b"0123456789abcdef"[..(4 + (seq % 12) as usize)];
                let len = 4 + 1 + 8 + if set { value.len() } else { 0 };
                out.extend_from_slice(&(len as u32).to_le_bytes());
                out.push(if set { b'S' } else { b'G' });
                out.extend_from_slice(&key);
                if set {
                    out.extend_from_slice(value);
                }
            }
            Proto::Mqtt => {
                let (ty, payload) = match seq % 4 {
                    0 => (0x10u8, &b"client-id"[..]),
                    3 => (0xC0u8, &b""[..]),
                    _ => (0x30u8, &b"topic/a|payload-bytes"[..]),
                };
                out.push(ty);
                out.push(payload.len() as u8);
                out.extend_from_slice(payload);
            }
        }
    }

    /// Consumes one complete frame from the front of `buf`, writing the
    /// reply into `reply`. Returns false when no full frame is buffered.
    fn serve_frame(self, buf: &mut Vec<u8>, reply: &mut Vec<u8>) -> bool {
        reply.clear();
        match self {
            Proto::Memcached => {
                if buf.len() < 4 {
                    return false;
                }
                let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                if buf.len() < len {
                    return false;
                }
                let op = buf[4];
                let payload: Vec<u8> = buf.drain(..len).skip(5).collect();
                let body: &[u8] = if op == b'S' { b"STORED" } else { &payload[..8] };
                reply.extend_from_slice(&(4 + body.len() as u32).to_le_bytes());
                reply.extend_from_slice(body);
                true
            }
            Proto::Mqtt => {
                if buf.len() < 2 {
                    return false;
                }
                let rem = buf[1] as usize;
                if buf.len() < 2 + rem {
                    return false;
                }
                let ty = buf[0];
                buf.drain(..2 + rem);
                match ty {
                    0x10 => reply.extend_from_slice(&[0x20, 2, 0, 0]),
                    0x30 => reply.extend_from_slice(&[0x40, 2, 0, 0]),
                    _ => reply.extend_from_slice(&[0xD0, 0]),
                }
                true
            }
        }
    }
}

struct WorkloadStats {
    replies: u64,
    serve_ns: u64,
    latencies_ns: Vec<u64>,
}

/// Runs the churny request/reply workload against a fresh server.
fn run_protocol(proto: Proto, n: usize) -> WorkloadStats {
    let mut s = Server::new(n);
    let mut seq = 0u64;
    let mut frame = Vec::new();
    let mut reply = Vec::new();
    let mut read_buf = [0u8; 4096];
    let mut stats = WorkloadStats {
        replies: 0,
        serve_ns: 0,
        latencies_ns: Vec::with_capacity(ROUNDS * ROUND_FANOUT),
    };

    for round in 0..ROUNDS {
        // --- client side: traffic + churn over a rotating window -------
        let mut outstanding = 0usize;
        for j in 0..ROUND_FANOUT {
            let i = (round * ROUND_FANOUT + j) % n;
            if s.conns[i].state == ConnState::HalfClosed {
                // Second touch completes the disconnect. The DEL runs
                // before the close, so no EOF event is ever delivered —
                // nothing becomes outstanding.
                s.recycle(i);
                continue;
            }
            if !s.conns[i].pending.is_empty() {
                // Slow writer catches up: the stashed remainder finally
                // completes the frame the server has been sitting on.
                let rest = std::mem::take(&mut s.conns[i].pending);
                s.k.sys_write(s.tid, s.conns[i].cfd, &rest).unwrap();
                outstanding += 1;
                continue;
            }
            if j % 32 == 31 {
                // Disconnect storm: client close while still registered;
                // the server sees the hangup as an EOF event and
                // recycles the slot from inside the serve loop.
                s.k.sys_close(s.tid, s.conns[i].cfd).unwrap();
                outstanding += 1;
                continue;
            }
            if j % 32 == 15 {
                // Half-close: the hangup push is spurious (not readable,
                // the ring discards it on verify); no frame, no event.
                s.k.sys_shutdown(s.tid, s.conns[i].cfd, SHUT_WR).unwrap();
                s.conns[i].state = ConnState::HalfClosed;
                continue;
            }
            seq += 1;
            proto.request(seq, &mut frame);
            if j % 8 == 7 && frame.len() > 2 {
                // Slow writer: half the frame now; the server buffers the
                // partial and replies only once the remainder lands on a
                // later touch of this connection.
                let half = frame.len() / 2;
                s.k.sys_write(s.tid, s.conns[i].cfd, &frame[..half])
                    .unwrap();
                s.conns[i].pending = frame[half..].to_vec();
            } else {
                s.k.sys_write(s.tid, s.conns[i].cfd, &frame).unwrap();
                outstanding += 1;
            }
        }

        // --- server side: drain the batch, timing wakeup → reply -------
        let t_serve = Instant::now();
        let mut idle = 0;
        while outstanding > 0 {
            let t0 = Instant::now();
            let evs = s.k.sys_epoll_wait_ready(s.tid, s.ep, 256).unwrap();
            if evs.is_empty() {
                idle += 1;
                assert!(idle < 1000, "server stalled with {outstanding} outstanding");
                continue;
            }
            idle = 0;
            for &(_ev, data) in &evs {
                let i = data as usize;
                let sfd = s.conns[i].sfd;
                let got = s.k.sys_read(s.tid, sfd, &mut read_buf).unwrap();
                if got == 0 {
                    // EOF: deregister, close, replace (connect storm).
                    s.recycle(i);
                    outstanding -= 1;
                    continue;
                }
                s.conns[i].buf.extend_from_slice(&read_buf[..got as usize]);
                let mut b = std::mem::take(&mut s.conns[i].buf);
                while proto.serve_frame(&mut b, &mut reply) {
                    s.k.sys_write(s.tid, sfd, &reply).unwrap();
                    stats.replies += 1;
                    outstanding -= 1;
                    stats.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                }
                s.conns[i].buf = b;
            }
        }
        stats.serve_ns += t_serve.elapsed().as_nanos() as u64;
    }
    stats
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx] as f64
}

fn report_protocol(proto: Proto, n: usize) {
    let mut st = run_protocol(proto, n);
    st.latencies_ns.sort_unstable();
    let group = "c100k_server";
    let base = format!("{}/conns={n}", proto.name());
    harness::report_value(
        group,
        &format!("{base}/ns_per_op"),
        st.serve_ns as f64 / st.replies.max(1) as f64,
    );
    harness::report_value(
        group,
        &format!("{base}/p50_ns"),
        percentile(&st.latencies_ns, 0.50),
    );
    harness::report_value(
        group,
        &format!("{base}/p99_ns"),
        percentile(&st.latencies_ns, 0.99),
    );
    harness::report_value(
        group,
        &format!("{base}/p999_ns"),
        percentile(&st.latencies_ns, 0.999),
    );
    let ops_per_sec = st.replies as f64 / (st.serve_ns as f64 / 1e9);
    println!(
        "  {}/{}: {} replies, {:.0} ops/s served",
        group, base, st.replies, ops_per_sec
    );
}

fn main() {
    // Wakeup flatness: the ring must stay flat 1k → 100k.
    let wakeup_sizes: &[usize] = if full_rows() {
        &[1_000, 10_000, 100_000]
    } else {
        &[1_000, 10_000]
    };
    let mut g = harness::group("c100k_wakeup");
    let medians = bench_wakeup(&mut g, wakeup_sizes);
    g.finish();
    let med = |name: &str| {
        medians
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, m)| m)
            .unwrap_or(0.0)
    };
    if full_rows() {
        let (r1, r100) = (med("ring/registered=1000"), med("ring/registered=100000"));
        let growth = r100 / r1.max(1.0);
        println!("\nflatness 1k → 100k: ring {growth:.2}x");
        assert!(
            growth <= 2.0,
            "ring wakeup cost grew {growth:.2}x 1k → 100k"
        );
    }

    // Framed protocols with churn.
    let proto_sizes: &[usize] = if full_rows() {
        &[10_000, 50_000, 100_000]
    } else {
        &[10_000]
    };
    for &proto in &[Proto::Memcached, Proto::Mqtt] {
        for &n in proto_sizes {
            report_protocol(proto, n);
        }
    }
}
