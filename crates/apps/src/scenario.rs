//! Randomized scenario programs for the fuzzer: process/IPC DAGs.
//!
//! A [`Scenario`] is a declarative description of a process tree plus the
//! IPC it performs — channels (pipes, socketpairs, eventfds), futex
//! words, signals, timers — with each thread's work split into global
//! *phases*. [`Scenario::emit`] compiles it to a Wasm module (via the
//! same `ModuleBuilder` the test suite uses) whose every operation
//! prints a unique console mark, so the fuzzer's oracles can compare the
//! *multiset of marks* across schedulers and against the model's own
//! prediction ([`Scenario::expected_console`]).
//!
//! **Deadlock freedom by construction.** [`Scenario::validate`] enforces
//! a phase discipline: every blocking acquisition in phase `p` (channel
//! consume, futex wait, signal await) is satisfied only by productions
//! in phases `< p`, and productions never block (token totals stay far
//! below pipe capacity; futex sets and kills are fire-and-forget). By
//! strong induction over phases every op eventually completes, so a
//! generated scenario that *hangs* or *leaks* is a kernel bug, not a
//! generator bug. The remaining rules close mechanism-specific traps:
//! a channel has exactly one consumer site (edge-triggered epoll tokens
//! can't be stolen by a sibling), edge-triggered consumes take exactly
//! one token (a partial drain would swallow the only edge), oneshot
//! consumes take exactly two (forcing the `EPOLL_CTL_MOD` re-arm path),
//! an eventfd has exactly one consume op (its counter read drains
//! everything at once), and futex words stay within a single process
//! (the kernel keys them by memory space).
//!
//! **Victims** are leaf processes that print nothing and sleep forever
//! until their parent delivers a fatal `SIGTERM`; they pin
//! signal-driven teardown (exit 143) without racing console output
//! against delivery. **Vfork-exec** children only `execve` a tiny leaf
//! program, pinning the vfork/exec path (the child borrows the parent's
//! pages until it execs).

use wali::testkit::{emit_sleep, spawn_thread, sys};
use wasm::build::{FuncBuilder, FuncId, ModuleBuilder};
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

/// Virtual path the emitted main module is registered under.
pub const MAIN_PATH: &str = "/usr/bin/app";
/// Virtual path the vfork-exec leaf program is registered under.
pub const LEAF_PATH: &str = "/usr/bin/leaf";

/// Signals a scenario process may install handlers for (never SIGTERM:
/// handler installs are inherited through fork, and victims rely on
/// SIGTERM staying fatal everywhere).
pub const HANDLED_SIGNOS: [u32; 4] = [1, 2, 10, 12]; // HUP, INT, USR1, USR2

const SIGTERM: u32 = 15;

// Caps that bound emitted code size and keep produce totals far below
// pipe capacity (productions must never block).
/// Maximum processes in the tree.
pub const MAX_PROCS: usize = 12;
/// Maximum threads per process (including the main thread).
pub const MAX_THREADS: usize = 4;
/// Maximum global phases.
pub const MAX_PHASES: usize = 6;
/// Maximum ops per (thread, phase).
pub const MAX_OPS_PER_PHASE: usize = 8;
/// Maximum channels.
pub const MAX_CHANS: usize = 16;
/// Maximum futex words.
pub const MAX_WORDS: usize = 8;
/// Maximum tokens moved through one channel over the whole scenario.
pub const MAX_CHAN_TOKENS: u32 = 64;

/// One IPC channel, created by the root before any fork so every
/// process inherits its fds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChanKind {
    /// `pipe()`: byte stream, unidirectional.
    Pipe,
    /// `socketpair(AF_UNIX, SOCK_STREAM)`: byte stream; side B produces,
    /// side A consumes.
    Sock,
    /// `eventfd2(0, 0)`: 8-byte counter; a read drains it entirely.
    EventFd,
}

/// How a consume op blocks until its channel is readable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mechanism {
    /// Plain blocking `read`.
    Direct,
    /// `poll(POLLIN)` then read.
    Poll,
    /// `ppoll(POLLIN, NULL, NULL)` then read.
    Ppoll,
    /// Level-triggered `epoll_wait` then read.
    EpollLt,
    /// Edge-triggered epoll; exactly one token.
    EpollEt,
    /// `EPOLLONESHOT` epoll; exactly two tokens, re-armed with
    /// `EPOLL_CTL_MOD` between them.
    EpollOneshot,
    /// Level-triggered epoll with a registration churn storm: the fd is
    /// `EPOLL_CTL_DEL`ed and re-`ADD`ed twice before every wait (each
    /// DEL may drop a queued ready-ring entry, each ADD re-probes), and
    /// on socket channels the producer side is half-closed after the
    /// last token so a registered, EOF-readable fd rides into teardown.
    EpollChurn,
    /// Each read is submitted as a `READ` SQE on a 1-entry batched
    /// syscall ring and drained with `wali_ring_enter(ring, 1, 1, 0)`;
    /// a `-ENOSYS` return (rings toggled off) falls back to the
    /// identical plain blocking read, which is exactly the equivalence
    /// the fuzzer's `WALI_NO_RING` oracle leg checks.
    Ring,
}

/// One operation inside a (thread, phase) slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Write `tokens` tokens into channel `chan` (never blocks).
    Produce { chan: usize, tokens: u32 },
    /// Consume `tokens` tokens from channel `chan`, blocking via `via`.
    Consume {
        chan: usize,
        tokens: u32,
        via: Mechanism,
    },
    /// Store 1 into futex word `word` and `FUTEX_WAKE` all waiters.
    FutexSet { word: usize },
    /// Block until futex word `word` becomes nonzero.
    FutexWait { word: usize },
    /// Virtual-clock sleep.
    Sleep { ns: u64 },
    /// `kill(pid_of(target), signo)` — the emitter loads the pid the
    /// parent recorded at fork time, so the killer must be the parent.
    Kill { target: usize, signo: u32 },
    /// Sleep-poll until this process's handler for `signo` has run.
    AwaitSignal { signo: u32 },
}

/// What kind of process a tree node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcKind {
    /// Forks, spawns threads, runs ops, reaps children, exits `10+idx`.
    Normal,
    /// Prints nothing, sleeps forever; killed by its parent's SIGTERM
    /// (exits 143).
    Victim,
    /// Spawned with `vfork`, immediately `execve`s [`LEAF_PATH`] (which
    /// prints `x` and exits 9).
    VforkExec,
}

/// One thread's work: `phases[p]` runs strictly after `phases[p-1]`
/// within the thread; phases are *not* barriers across threads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ThreadPlan {
    /// Ops per global phase (may be shorter than the scenario's phase
    /// count; missing phases are empty).
    pub phases: Vec<Vec<Op>>,
}

/// One process in the tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Proc {
    /// What this node is; only [`ProcKind::Normal`] carries work.
    pub kind: ProcKind,
    /// Child process indices (into [`Scenario::procs`]), forked in order.
    pub children: Vec<usize>,
    /// Signals this process installs the marking handler for.
    pub handles: Vec<u32>,
    /// Threads; index 0 is the process main thread.
    pub threads: Vec<ThreadPlan>,
}

impl Proc {
    /// A leaf process with no children, handlers or ops.
    pub fn leaf(kind: ProcKind) -> Proc {
        Proc {
            kind,
            children: Vec::new(),
            handles: Vec::new(),
            threads: vec![ThreadPlan::default()],
        }
    }
}

/// A full scenario: channels + futex words + the process tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Channels, created by the root before forking.
    pub chans: Vec<ChanKind>,
    /// Number of futex words.
    pub futex_words: usize,
    /// The process tree; `procs[0]` is the root.
    pub procs: Vec<Proc>,
}

/// The compiled form of a scenario.
pub struct ScenarioModules {
    /// The program every process in the tree runs.
    pub main: Module,
    /// The vfork-exec leaf, present iff the tree has a
    /// [`ProcKind::VforkExec`] node.
    pub leaf: Option<Module>,
}

impl ScenarioModules {
    /// `(path, module)` pairs to register before spawning [`MAIN_PATH`].
    pub fn programs(&self) -> Vec<(&'static str, &Module)> {
        let mut v = vec![(MAIN_PATH, &self.main)];
        if let Some(leaf) = &self.leaf {
            v.push((LEAF_PATH, leaf));
        }
        v
    }
}

/// Exit code a [`ProcKind::Normal`] process reports.
pub fn proc_exit_code(idx: usize) -> i32 {
    10 + idx as i32
}

impl Scenario {
    /// Checks every structural rule the emitter and the deadlock-freedom
    /// argument rely on. Generated scenarios satisfy this by
    /// construction; hand-written ones get told what they broke.
    pub fn validate(&self) -> Result<(), String> {
        if self.procs.is_empty() {
            return Err("no processes".into());
        }
        if self.procs.len() > MAX_PROCS {
            return Err(format!("too many procs ({})", self.procs.len()));
        }
        if self.chans.len() > MAX_CHANS {
            return Err(format!("too many chans ({})", self.chans.len()));
        }
        if self.futex_words > MAX_WORDS {
            return Err(format!("too many futex words ({})", self.futex_words));
        }
        if self.procs[0].kind != ProcKind::Normal {
            return Err("root must be Normal".into());
        }
        self.check_tree()?;
        self.check_procs()?;
        self.check_chans()?;
        self.check_futexes()?;
        self.check_signals()?;
        Ok(())
    }

    fn check_tree(&self) -> Result<(), String> {
        let n = self.procs.len();
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut stack = vec![0usize];
        while let Some(p) = stack.pop() {
            for &c in &self.procs[p].children {
                if c >= n {
                    return Err(format!("proc {p} has out-of-range child {c}"));
                }
                if c == 0 {
                    return Err("root appears as a child".into());
                }
                if seen[c] {
                    return Err(format!("proc {c} has two parents (or a cycle)"));
                }
                seen[c] = true;
                stack.push(c);
            }
        }
        if let Some(orphan) = seen.iter().position(|s| !s) {
            return Err(format!("proc {orphan} unreachable from root"));
        }
        Ok(())
    }

    fn check_procs(&self) -> Result<(), String> {
        for (i, p) in self.procs.iter().enumerate() {
            if p.threads.is_empty() || p.threads.len() > MAX_THREADS {
                return Err(format!("proc {i}: bad thread count {}", p.threads.len()));
            }
            for t in &p.threads {
                if t.phases.len() > MAX_PHASES {
                    return Err(format!("proc {i}: too many phases"));
                }
                for ops in &t.phases {
                    if ops.len() > MAX_OPS_PER_PHASE {
                        return Err(format!("proc {i}: too many ops in a phase"));
                    }
                }
            }
            if p.kind != ProcKind::Normal {
                let has_ops = p
                    .threads
                    .iter()
                    .any(|t| t.phases.iter().any(|o| !o.is_empty()));
                if !p.children.is_empty()
                    || !p.handles.is_empty()
                    || p.threads.len() != 1
                    || has_ops
                {
                    return Err(format!("proc {i}: {:?} must be a bare leaf", p.kind));
                }
            }
        }
        Ok(())
    }

    /// Iterates every op with its location: `(proc, thread, phase, op)`.
    fn ops(&self) -> impl Iterator<Item = (usize, usize, usize, &Op)> {
        self.procs.iter().enumerate().flat_map(|(pi, p)| {
            p.threads.iter().enumerate().flat_map(move |(ti, t)| {
                t.phases
                    .iter()
                    .enumerate()
                    .flat_map(move |(ph, ops)| ops.iter().map(move |op| (pi, ti, ph, op)))
            })
        })
    }

    fn check_chans(&self) -> Result<(), String> {
        struct ChanUse {
            produced: u32,
            consumed: u32,
            consume_ops: u32,
            site: Option<(usize, usize)>,
            via: Option<Mechanism>,
            max_produce_phase: Option<usize>,
            min_consume_phase: Option<usize>,
        }
        let mut uses: Vec<ChanUse> = (0..self.chans.len())
            .map(|_| ChanUse {
                produced: 0,
                consumed: 0,
                consume_ops: 0,
                site: None,
                via: None,
                max_produce_phase: None,
                min_consume_phase: None,
            })
            .collect();
        for (pi, ti, ph, op) in self.ops() {
            match *op {
                Op::Produce { chan, tokens } => {
                    let u = uses.get_mut(chan).ok_or(format!("bad chan {chan}"))?;
                    if tokens == 0 {
                        return Err(format!("chan {chan}: zero-token produce"));
                    }
                    u.produced += tokens;
                    u.max_produce_phase = Some(u.max_produce_phase.unwrap_or(0).max(ph));
                }
                Op::Consume { chan, tokens, via } => {
                    let u = uses.get_mut(chan).ok_or(format!("bad chan {chan}"))?;
                    if tokens == 0 {
                        return Err(format!("chan {chan}: zero-token consume"));
                    }
                    match via {
                        Mechanism::EpollEt if tokens != 1 => {
                            return Err(format!("chan {chan}: edge-triggered consume must take 1"));
                        }
                        Mechanism::EpollOneshot if tokens != 2 => {
                            return Err(format!("chan {chan}: oneshot consume must take 2"));
                        }
                        _ => {}
                    }
                    if *u.site.get_or_insert((pi, ti)) != (pi, ti) {
                        return Err(format!("chan {chan}: two consumer sites"));
                    }
                    if *u.via.get_or_insert(via) != via {
                        return Err(format!("chan {chan}: mixed consume mechanisms"));
                    }
                    u.consumed += tokens;
                    u.consume_ops += 1;
                    u.min_consume_phase =
                        Some(u.min_consume_phase.map_or(ph, |m: usize| m.min(ph)));
                }
                _ => {}
            }
        }
        for (c, u) in uses.iter().enumerate() {
            if u.produced != u.consumed {
                return Err(format!(
                    "chan {c}: {} produced != {} consumed",
                    u.produced, u.consumed
                ));
            }
            if u.produced > MAX_CHAN_TOKENS {
                return Err(format!("chan {c}: token total {} too high", u.produced));
            }
            if let (Some(maxp), Some(minc)) = (u.max_produce_phase, u.min_consume_phase) {
                if maxp >= minc {
                    return Err(format!(
                        "chan {c}: produce in phase {maxp} not before consume in phase {minc}"
                    ));
                }
            }
            if self.chans[c] == ChanKind::EventFd && u.consume_ops > 1 {
                return Err(format!(
                    "chan {c}: eventfd needs a single consume op (reads drain the counter)"
                ));
            }
        }
        Ok(())
    }

    fn check_futexes(&self) -> Result<(), String> {
        struct WordUse {
            proc: Option<usize>,
            max_set_phase: Option<usize>,
            min_wait_phase: Option<usize>,
        }
        let mut uses: Vec<WordUse> = (0..self.futex_words)
            .map(|_| WordUse {
                proc: None,
                max_set_phase: None,
                min_wait_phase: None,
            })
            .collect();
        for (pi, _ti, ph, op) in self.ops() {
            let (word, is_wait) = match *op {
                Op::FutexSet { word } => (word, false),
                Op::FutexWait { word } => (word, true),
                _ => continue,
            };
            let u = uses.get_mut(word).ok_or(format!("bad futex word {word}"))?;
            if *u.proc.get_or_insert(pi) != pi {
                return Err(format!("futex word {word} used from two processes"));
            }
            if is_wait {
                u.min_wait_phase = Some(u.min_wait_phase.map_or(ph, |m: usize| m.min(ph)));
            } else {
                u.max_set_phase = Some(u.max_set_phase.unwrap_or(0).max(ph));
            }
        }
        for (w, u) in uses.iter().enumerate() {
            if let Some(minw) = u.min_wait_phase {
                match u.max_set_phase {
                    None => return Err(format!("futex word {w}: wait with no set")),
                    Some(maxs) if maxs >= minw => {
                        return Err(format!(
                            "futex word {w}: set in phase {maxs} not before wait in phase {minw}"
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    fn check_signals(&self) -> Result<(), String> {
        let parent: Vec<Option<usize>> = {
            let mut par = vec![None; self.procs.len()];
            for (pi, p) in self.procs.iter().enumerate() {
                for &c in &p.children {
                    par[c] = Some(pi);
                }
            }
            par
        };
        for (i, p) in self.procs.iter().enumerate() {
            for &s in &p.handles {
                if !HANDLED_SIGNOS.contains(&s) {
                    return Err(format!("proc {i}: handler for unsupported signal {s}"));
                }
            }
        }
        // (target, signo) -> earliest kill phase; also count per pair.
        let mut kills: Vec<(usize, u32, usize)> = Vec::new();
        for (pi, _ti, ph, op) in self.ops() {
            if let Op::Kill { target, signo } = *op {
                if target >= self.procs.len() {
                    return Err(format!("kill of out-of-range proc {target}"));
                }
                if parent[target] != Some(pi) {
                    return Err(format!(
                        "proc {pi} kills {target} but only the parent knows the pid"
                    ));
                }
                if kills.iter().any(|&(t, s, _)| t == target && s == signo) {
                    return Err(format!("two kills of proc {target} with signal {signo}"));
                }
                let tgt = &self.procs[target];
                if tgt.kind == ProcKind::Victim {
                    if signo != SIGTERM {
                        return Err(format!("victim {target} must be killed with SIGTERM"));
                    }
                } else if !tgt.handles.contains(&signo) {
                    return Err(format!(
                        "proc {target} killed with unhandled signal {signo} (would die)"
                    ));
                }
                kills.push((target, signo, ph));
            }
        }
        for (i, p) in self.procs.iter().enumerate() {
            if p.kind == ProcKind::Victim && !kills.iter().any(|&(t, s, _)| t == i && s == SIGTERM)
            {
                return Err(format!(
                    "victim {i} is never killed (would hang the reaper)"
                ));
            }
        }
        for (pi, _ti, ph, op) in self.ops() {
            if let Op::AwaitSignal { signo } = *op {
                if !self.procs[pi].handles.contains(&signo) {
                    return Err(format!("proc {pi} awaits unhandled signal {signo}"));
                }
                let ok = kills
                    .iter()
                    .any(|&(t, s, kp)| t == pi && s == signo && kp < ph);
                if !ok {
                    return Err(format!(
                        "proc {pi}: await of signal {signo} in phase {ph} has no earlier kill"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The sorted multiset of console lines a correct run must print:
    /// one `p<proc>t<thread>o<seq>` mark per op, plus one `x` per
    /// vfork-exec leaf.
    pub fn expected_console(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (pi, p) in self.procs.iter().enumerate() {
            for (ti, t) in p.threads.iter().enumerate() {
                let mut seq = 0usize;
                for ops in &t.phases {
                    for _ in ops {
                        lines.push(format!("p{pi}t{ti}o{seq}"));
                        seq += 1;
                    }
                }
            }
            if p.kind == ProcKind::VforkExec {
                lines.push("x".into());
            }
        }
        lines.sort();
        lines
    }

    /// The root's expected exit code.
    pub fn expected_main_exit(&self) -> i32 {
        proc_exit_code(0)
    }

    /// Compiles the scenario. Panics if [`Scenario::validate`] fails —
    /// call it first on untrusted input.
    pub fn emit(&self) -> ScenarioModules {
        self.validate().expect("emit of invalid scenario");
        let leaf = if self.procs.iter().any(|p| p.kind == ProcKind::VforkExec) {
            Some(leaf_module())
        } else {
            None
        };
        ScenarioModules {
            main: emit_main(self),
            leaf,
        }
    }
}

/// The vfork-exec leaf: prints `x`, exits 9.
fn leaf_module() -> Module {
    let mut mb = ModuleBuilder::new();
    let write = sys(&mut mb, "write", 3);
    mb.memory(2, Some(16));
    let msg = mb.c_str("x\n");
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        b.i64(1).i64(msg as i64).i64(2).call(write).drop_();
        b.i32(9);
    });
    mb.export("_start", main);
    mb.build()
}

/// All the syscall imports the emitted program may use.
struct Sys {
    write: FuncId,
    read: FuncId,
    pipe: FuncId,
    socketpair: FuncId,
    eventfd2: FuncId,
    futex: FuncId,
    nanosleep: FuncId,
    fork: FuncId,
    vfork: FuncId,
    execve: FuncId,
    wait4: FuncId,
    exit: FuncId,
    exit_group: FuncId,
    clone: FuncId,
    kill: FuncId,
    sigaction: FuncId,
    poll: FuncId,
    ppoll: FuncId,
    epoll_create1: FuncId,
    epoll_ctl: FuncId,
    epoll_wait: FuncId,
    shutdown: FuncId,
    ring_enter: FuncId,
}

impl Sys {
    fn import(mb: &mut ModuleBuilder) -> Sys {
        Sys {
            write: sys(mb, "write", 3),
            read: sys(mb, "read", 3),
            pipe: sys(mb, "pipe", 1),
            socketpair: sys(mb, "socketpair", 4),
            eventfd2: sys(mb, "eventfd2", 2),
            futex: sys(mb, "futex", 6),
            nanosleep: sys(mb, "nanosleep", 2),
            fork: sys(mb, "fork", 0),
            vfork: sys(mb, "vfork", 0),
            execve: sys(mb, "execve", 3),
            wait4: sys(mb, "wait4", 4),
            exit: sys(mb, "exit", 1),
            exit_group: sys(mb, "exit_group", 1),
            clone: sys(mb, "clone", 5),
            kill: sys(mb, "kill", 2),
            sigaction: sys(mb, "rt_sigaction", 4),
            poll: sys(mb, "poll", 3),
            ppoll: sys(mb, "ppoll", 4),
            epoll_create1: sys(mb, "epoll_create1", 1),
            epoll_ctl: sys(mb, "epoll_ctl", 4),
            epoll_wait: sys(mb, "epoll_wait", 4),
            shutdown: sys(mb, "shutdown", 2),
            ring_enter: sys(mb, "wali_ring_enter", 4),
        }
    }
}

// Per-thread scratch block layout (threads share memory, so every
// thread gets its own block; forked processes get COW copies).
const SCRATCH_TS: u32 = 0; // timespec, 16 B
const SCRATCH_BUF: u32 = 16; // read/write buffer, 16 B
const SCRATCH_STATUS: u32 = 32; // wait4 status, 8 B
const SCRATCH_PFD: u32 = 40; // one pollfd, 8 B
const SCRATCH_MASK: u32 = 48; // ppoll sigmask, 8 B
const SCRATCH_EV: u32 = 56; // epoll_ctl event, 12 B (+pad)
const SCRATCH_EVBUF: u32 = 72; // epoll_wait out buffer, 8 events
const SCRATCH_RING: u32 = 72 + 8 * 12; // 1-entry SQ/CQ ring: 32 + 32 + 16 B
const SCRATCH_SIZE: u32 = SCRATCH_RING + 80;

/// Reserved memory addresses, all allocated before any function body so
/// closures can reference them.
struct Layout {
    chan_fds: u32, // [read fd, write fd] per chan, 8 B each
    futex: u32,    // 8 B per word (4 used)
    pids: u32,     // fork-returned pid per proc, 8 B each
    done: u32,     // per-(proc,thread) completion flag, 4 B each
    hflags: u32,   // per-signo handler-ran flag, 4 B each
    act: u32,      // sigaction struct, 24 B
    scratch: u32,  // SCRATCH_SIZE per (proc,thread)
    leaf_path: u32,
    /// `marks[proc][thread]` = (addr, len) per op, in emission order.
    marks: Vec<Vec<Vec<(u32, u32)>>>,
    /// Flat (proc, thread) index base per proc.
    thread_base: Vec<u32>,
}

impl Layout {
    fn new(mb: &mut ModuleBuilder, scn: &Scenario) -> Layout {
        let mut thread_base = Vec::with_capacity(scn.procs.len());
        let mut flat = 0u32;
        for p in &scn.procs {
            thread_base.push(flat);
            flat += p.threads.len() as u32;
        }
        let chan_fds = mb.reserve((scn.chans.len().max(1) as u32) * 8);
        let futex = mb.reserve((scn.futex_words.max(1) as u32) * 8);
        let pids = mb.reserve(scn.procs.len() as u32 * 8);
        let done = mb.reserve(flat * 4);
        let hflags = mb.reserve(64 * 4);
        let act = mb.reserve(24);
        let scratch = mb.reserve(flat * SCRATCH_SIZE);
        let leaf_path = mb.c_str(LEAF_PATH);
        let marks = scn
            .procs
            .iter()
            .enumerate()
            .map(|(pi, p)| {
                p.threads
                    .iter()
                    .enumerate()
                    .map(|(ti, t)| {
                        let n: usize = t.phases.iter().map(Vec::len).sum();
                        (0..n)
                            .map(|seq| {
                                let s = format!("p{pi}t{ti}o{seq}\n");
                                (mb.c_str(&s), s.len() as u32)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Layout {
            chan_fds,
            futex,
            pids,
            done,
            hflags,
            act,
            scratch,
            leaf_path,
            marks,
            thread_base,
        }
    }

    fn chan_slot(&self, chan: usize) -> u32 {
        self.chan_fds + chan as u32 * 8
    }
    fn word_addr(&self, word: usize) -> u32 {
        self.futex + word as u32 * 8
    }
    fn pid_slot(&self, proc: usize) -> u32 {
        self.pids + proc as u32 * 8
    }
    fn flat(&self, proc: usize, thread: usize) -> u32 {
        self.thread_base[proc] + thread as u32
    }
    fn done_flag(&self, proc: usize, thread: usize) -> u32 {
        self.done + self.flat(proc, thread) * 4
    }
    fn hflag(&self, signo: u32) -> u32 {
        self.hflags + signo * 4
    }
    fn scratch(&self, proc: usize, thread: usize) -> u32 {
        self.scratch + self.flat(proc, thread) * SCRATCH_SIZE
    }
}

/// Everything the per-op emitters need.
struct Ctx {
    sys: Sys,
    lay: Layout,
    // Shared wasm locals (each task has its own frame copy).
    l_ret: u32,  // i64 syscall return scratch
    l_got: u32,  // i64 eventfd accumulator
    l_pid: u32,  // i64 fork return
    l_i: u32,    // i32 loop counter
    l_all: u32,  // i32 join-poll accumulator
    l_j: u32,    // i32 join-poll counter
    l_epfd: u32, // i64 epoll fd
}

fn emit_main(scn: &Scenario) -> Module {
    let mut mb = ModuleBuilder::new();
    let sys = Sys::import(&mut mb);
    mb.memory(4, Some(64));
    let lay = Layout::new(&mut mb, scn);

    // The one signal handler: sets hflags[signo]. Table index 2, like
    // the native ABI's 0/1 = SIG_DFL/SIG_IGN encoding.
    let handler_sig = mb.sig([I32], []);
    let dummy = mb.func(handler_sig, |_| {});
    let hflags = lay.hflags;
    let handler = mb.func(handler_sig, |b| {
        b.i32(hflags as i32)
            .local_get(0)
            .i32(4)
            .mul32()
            .add32()
            .i32(1)
            .store32(0);
    });
    let base = mb.table_entries(&[dummy, dummy, handler]);
    assert_eq!(base, 0, "handler must land at table index 2");

    let main_sig = mb.sig([], [I32]);
    let main = mb.func(main_sig, |b| {
        let ctx = Ctx {
            sys,
            lay,
            l_ret: b.local(I64),
            l_got: b.local(I64),
            l_pid: b.local(I64),
            l_i: b.local(I32),
            l_all: b.local(I32),
            l_j: b.local(I32),
            l_epfd: b.local(I64),
        };
        emit_chan_creation(b, &ctx, scn);
        emit_proc(b, &ctx, scn, 0);
        // Unreachable (the root exit_groups), but the signature needs it.
        b.i32(0);
    });
    mb.export("_start", main);
    mb.build()
}

/// Root-only: create every channel before the first fork so all
/// processes inherit the fds (addresses are pre-fork memory, so COW
/// copies agree on them too).
fn emit_chan_creation(b: &mut FuncBuilder, ctx: &Ctx, scn: &Scenario) {
    for (c, kind) in scn.chans.iter().enumerate() {
        let slot = ctx.lay.chan_slot(c);
        match kind {
            ChanKind::Pipe => {
                b.i64(slot as i64).call(ctx.sys.pipe).drop_();
            }
            ChanKind::Sock => {
                // AF_UNIX=1, SOCK_STREAM=1; [0]=consume side, [4]=produce.
                b.i64(1)
                    .i64(1)
                    .i64(0)
                    .i64(slot as i64)
                    .call(ctx.sys.socketpair)
                    .drop_();
            }
            ChanKind::EventFd => {
                b.i64(0).i64(0).call(ctx.sys.eventfd2).local_set(ctx.l_ret);
                b.i32(slot as i32).local_get(ctx.l_ret).wrap().store32(0);
                b.i32(slot as i32).local_get(ctx.l_ret).wrap().store32(4);
            }
        }
    }
}

/// Emits one process's whole life. Every non-root call site is inside a
/// `fork() == 0` branch; the body never falls through (it exits or, for
/// victims, sleeps forever).
fn emit_proc(b: &mut FuncBuilder, ctx: &Ctx, scn: &Scenario, pi: usize) {
    let p = &scn.procs[pi];
    match p.kind {
        ProcKind::Victim => {
            emit_victim_body(b, ctx, pi);
            return;
        }
        ProcKind::VforkExec => unreachable!("vfork children are emitted at the fork site"),
        ProcKind::Normal => {}
    }

    // 1. Handlers, before any child can be forked or signal sent.
    for &signo in &p.handles {
        b.i32(ctx.lay.act as i32).i32(2).store32(0); // handler = table index 2
        b.i64(signo as i64)
            .i64(ctx.lay.act as i64)
            .i64(0)
            .i64(8)
            .call(ctx.sys.sigaction)
            .drop_();
    }

    // 2. Fork children in order, recording each pid.
    for &c in &p.children {
        if scn.procs[c].kind == ProcKind::VforkExec {
            b.call(ctx.sys.vfork).local_set(ctx.l_pid);
            b.local_get(ctx.l_pid).i64(0).eq64();
            b.if_(BlockType::Empty, |b| {
                b.i64(ctx.lay.leaf_path as i64)
                    .i64(0)
                    .i64(0)
                    .call(ctx.sys.execve)
                    .drop_();
                // Exec failed — die loudly rather than run as a twin.
                b.i64(99).call(ctx.sys.exit_group).drop_();
            });
        } else {
            b.call(ctx.sys.fork).local_set(ctx.l_pid);
            b.local_get(ctx.l_pid).i64(0).eq64();
            b.if_(BlockType::Empty, |b| {
                emit_proc(b, ctx, scn, c);
            });
        }
        b.i32(ctx.lay.pid_slot(c) as i32)
            .local_get(ctx.l_pid)
            .store64(0);
    }

    // 3. Spawn sibling threads (they run their phases then flag done).
    for ti in 1..p.threads.len() {
        spawn_thread(b, ctx.sys.clone, |b| {
            emit_thread_ops(b, ctx, scn, pi, ti);
            b.i32(ctx.lay.done_flag(pi, ti) as i32).i32(1).store32(0);
            b.i64(0).call(ctx.sys.exit).drop_();
        });
    }

    // 4. The main thread's own phases.
    emit_thread_ops(b, ctx, scn, pi, 0);

    // 5. Join: sleep-poll until every sibling flagged done.
    if p.threads.len() > 1 {
        let ts = ctx.lay.scratch(pi, 0) + SCRATCH_TS;
        b.loop_(BlockType::Empty, |b| {
            b.i32(1).local_set(ctx.l_all);
            b.i32(1).local_set(ctx.l_j);
            b.loop_(BlockType::Empty, |b| {
                b.i32((ctx.lay.done + ctx.lay.thread_base[pi] * 4) as i32)
                    .local_get(ctx.l_j)
                    .i32(4)
                    .mul32()
                    .add32()
                    .load32(0)
                    .eqz32();
                b.if_(BlockType::Empty, |b| {
                    b.i32(0).local_set(ctx.l_all);
                });
                b.local_get(ctx.l_j)
                    .i32(1)
                    .add32()
                    .local_tee(ctx.l_j)
                    .i32(p.threads.len() as i32)
                    .lt_s32()
                    .br_if(0);
            });
            b.local_get(ctx.l_all).eqz32();
            b.if_(BlockType::Empty, |b| {
                emit_sleep(b, ctx.sys.nanosleep, ts, 0, 100_000);
                b.br(1);
            });
        });
    }

    // 6. Reap every child (victims are dead by now: kills happen in
    // phases, phases end before the join completes).
    for &c in &p.children {
        b.i32(ctx.lay.pid_slot(c) as i32)
            .load64(0)
            .i64((ctx.lay.scratch(pi, 0) + SCRATCH_STATUS) as i64)
            .i64(0)
            .i64(0)
            .call(ctx.sys.wait4)
            .drop_();
    }

    // 7. Exit with this process's signature code.
    b.i64(proc_exit_code(pi) as i64)
        .call(ctx.sys.exit_group)
        .drop_();
}

/// A victim prints nothing and sleeps until SIGTERM takes it.
fn emit_victim_body(b: &mut FuncBuilder, ctx: &Ctx, pi: usize) {
    let ts = ctx.lay.scratch(pi, 0) + SCRATCH_TS;
    b.loop_(BlockType::Empty, |b| {
        emit_sleep(b, ctx.sys.nanosleep, ts, 1, 0);
        b.i32(1).br_if(0);
    });
}

/// One thread's phases, each op followed by its console mark.
fn emit_thread_ops(b: &mut FuncBuilder, ctx: &Ctx, scn: &Scenario, pi: usize, ti: usize) {
    let mut seq = 0usize;
    for ops in &scn.procs[pi].threads[ti].phases {
        for op in ops {
            emit_op(b, ctx, scn, pi, ti, op);
            let (addr, len) = ctx.lay.marks[pi][ti][seq];
            b.i64(1)
                .i64(addr as i64)
                .i64(len as i64)
                .call(ctx.sys.write)
                .drop_();
            seq += 1;
        }
    }
}

fn emit_op(b: &mut FuncBuilder, ctx: &Ctx, scn: &Scenario, pi: usize, ti: usize, op: &Op) {
    let scratch = ctx.lay.scratch(pi, ti);
    match *op {
        Op::Produce { chan, tokens } => emit_produce(b, ctx, scn, chan, tokens, scratch),
        Op::Consume { chan, tokens, via } => emit_consume(b, ctx, scn, chan, tokens, via, scratch),
        Op::FutexSet { word } => {
            let addr = ctx.lay.word_addr(word);
            b.i32(addr as i32).i32(1).store32(0);
            b.i64(addr as i64)
                .i64(1) // FUTEX_WAKE
                .i64(i32::MAX as i64)
                .i64(0)
                .i64(0)
                .i64(0)
                .call(ctx.sys.futex)
                .drop_();
        }
        Op::FutexWait { word } => {
            let addr = ctx.lay.word_addr(word);
            b.loop_(BlockType::Empty, |b| {
                b.i32(addr as i32).load32(0).eqz32();
                b.if_(BlockType::Empty, |b| {
                    // FUTEX_WAIT while the word is still 0; the kernel
                    // rechecks under its lock, so this can't miss the set.
                    b.i64(addr as i64)
                        .i64(0)
                        .i64(0)
                        .i64(0)
                        .i64(0)
                        .i64(0)
                        .call(ctx.sys.futex)
                        .drop_();
                    b.br(1);
                });
            });
        }
        Op::Sleep { ns } => {
            let ts = scratch + SCRATCH_TS;
            emit_sleep(
                b,
                ctx.sys.nanosleep,
                ts,
                (ns / 1_000_000_000) as i64,
                (ns % 1_000_000_000) as i64,
            );
        }
        Op::Kill { target, signo } => {
            b.i32(ctx.lay.pid_slot(target) as i32)
                .load64(0)
                .i64(signo as i64)
                .call(ctx.sys.kill)
                .drop_();
        }
        Op::AwaitSignal { signo } => {
            let ts = scratch + SCRATCH_TS;
            let flag = ctx.lay.hflag(signo);
            b.loop_(BlockType::Empty, |b| {
                b.i32(flag as i32).load32(0).eqz32();
                b.if_(BlockType::Empty, |b| {
                    emit_sleep(b, ctx.sys.nanosleep, ts, 0, 100_000);
                    b.br(1);
                });
            });
        }
    }
}

fn emit_produce(
    b: &mut FuncBuilder,
    ctx: &Ctx,
    scn: &Scenario,
    chan: usize,
    tokens: u32,
    scratch: u32,
) {
    let slot = ctx.lay.chan_slot(chan);
    let buf = scratch + SCRATCH_BUF;
    if scn.chans[chan] == ChanKind::EventFd {
        b.i32(buf as i32).i64(1).store64(0);
    } else {
        b.i32(buf as i32).i32(b'.' as i32).store8(0);
    }
    let len: i64 = if scn.chans[chan] == ChanKind::EventFd {
        8
    } else {
        1
    };
    emit_repeat(b, ctx, tokens, |b, ctx| {
        b.i32(slot as i32)
            .load32(4)
            .extend_u()
            .i64(buf as i64)
            .i64(len)
            .call(ctx.sys.write)
            .drop_();
    });
}

fn emit_consume(
    b: &mut FuncBuilder,
    ctx: &Ctx,
    scn: &Scenario,
    chan: usize,
    tokens: u32,
    via: Mechanism,
    scratch: u32,
) {
    use wali_abi::flags::{
        EPOLLET, EPOLLIN, EPOLLONESHOT, EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD, SHUT_WR,
    };
    let is_eventfd = scn.chans[chan] == ChanKind::EventFd;
    let slot = ctx.lay.chan_slot(chan);

    // Epoll mechanisms register once up front (a fresh epoll fd per op:
    // teardown releases it with the rest of the task's files).
    let epoll_events = match via {
        Mechanism::EpollLt | Mechanism::EpollChurn => Some(EPOLLIN),
        Mechanism::EpollEt => Some(EPOLLIN | EPOLLET),
        Mechanism::EpollOneshot => Some(EPOLLIN | EPOLLONESHOT),
        _ => None,
    };
    if let Some(events) = epoll_events {
        b.i64(0).call(ctx.sys.epoll_create1).local_set(ctx.l_epfd);
        emit_epoll_ctl(b, ctx, EPOLL_CTL_ADD, slot, events, scratch);
    }

    // One blocking wait for readiness (no-op for Direct and Ring,
    // whose reads block by themselves).
    let emit_wait = |b: &mut FuncBuilder, ctx: &Ctx| match via {
        Mechanism::Direct | Mechanism::Ring => {}
        Mechanism::Poll => {
            emit_pollfd(b, slot, scratch);
            b.i64((scratch + SCRATCH_PFD) as i64)
                .i64(1)
                .i64(-1)
                .call(ctx.sys.poll)
                .drop_();
        }
        Mechanism::Ppoll => {
            emit_pollfd(b, slot, scratch);
            b.i32((scratch + SCRATCH_MASK) as i32).i64(0).store64(0);
            b.i64((scratch + SCRATCH_PFD) as i64)
                .i64(1)
                .i64(0) // NULL timeout: infinite
                .i64((scratch + SCRATCH_MASK) as i64)
                .call(ctx.sys.ppoll)
                .drop_();
        }
        Mechanism::EpollLt | Mechanism::EpollEt | Mechanism::EpollOneshot => {
            b.local_get(ctx.l_epfd)
                .i64((scratch + SCRATCH_EVBUF) as i64)
                .i64(8)
                .i64(-1)
                .call(ctx.sys.epoll_wait)
                .drop_();
        }
        Mechanism::EpollChurn => {
            // Registration churn storm before the wait: a DEL drops any
            // queued ready entry, an ADD of a ready fd must queue a
            // fresh one — the wait after the storm may never hang.
            for _ in 0..2 {
                emit_epoll_ctl(b, ctx, EPOLL_CTL_DEL, slot, 0, scratch);
                emit_epoll_ctl(b, ctx, EPOLL_CTL_ADD, slot, EPOLLIN, scratch);
            }
            b.local_get(ctx.l_epfd)
                .i64((scratch + SCRATCH_EVBUF) as i64)
                .i64(8)
                .i64(-1)
                .call(ctx.sys.epoll_wait)
                .drop_();
        }
    };

    // One blocking read of `len` bytes into the scratch buffer — either
    // the plain syscall or (for Ring) a single-SQE `wali_ring_enter`.
    let emit_read = |b: &mut FuncBuilder, ctx: &Ctx, len: u32| {
        if via == Mechanism::Ring {
            emit_ring_read(b, ctx, slot, scratch + SCRATCH_BUF, len, scratch);
        } else {
            b.i32(slot as i32)
                .load32(0)
                .extend_u()
                .i64((scratch + SCRATCH_BUF) as i64)
                .i64(len as i64)
                .call(ctx.sys.read)
                .drop_();
        }
    };

    if is_eventfd {
        // Counter semantics: each read drains everything accumulated so
        // far, so accumulate until all expected tokens arrived. (validate
        // guarantees this is the channel's only consume op.)
        let buf = scratch + SCRATCH_BUF;
        b.i64(0).local_set(ctx.l_got);
        b.loop_(BlockType::Empty, |b| {
            emit_wait(b, ctx);
            emit_read(b, ctx, 8);
            b.local_get(ctx.l_got)
                .i32(buf as i32)
                .load64(0)
                .add64()
                .local_set(ctx.l_got);
            if via == Mechanism::EpollOneshot {
                // Re-arm before a possible second wait.
                b.local_get(ctx.l_got).i64(tokens as i64).lt_s64();
                b.if_(BlockType::Empty, |b| {
                    emit_epoll_ctl(b, ctx, EPOLL_CTL_MOD, slot, EPOLLIN | EPOLLONESHOT, scratch);
                    b.br(1);
                });
            } else {
                b.local_get(ctx.l_got).i64(tokens as i64).lt_s64().br_if(0);
            }
        });
    } else {
        // Byte streams: exactly one byte per token, waiting each time.
        let mut left = tokens;
        let mut first = true;
        while left > 0 {
            if !first && via == Mechanism::EpollOneshot {
                emit_epoll_ctl(b, ctx, EPOLL_CTL_MOD, slot, EPOLLIN | EPOLLONESHOT, scratch);
            }
            // Oneshot must re-arm between waits, so its two iterations
            // are laid out straight-line; the rest loop in wasm.
            let n = if via == Mechanism::EpollOneshot {
                1
            } else {
                left
            };
            emit_repeat(b, ctx, n, |b, ctx| {
                emit_wait(b, ctx);
                emit_read(b, ctx, 1);
            });
            left -= n;
            first = false;
        }
    }

    // Half-close the producer side of a churned socket: the consumer fd
    // (still registered in this op's epoll) flips EOF-readable with no
    // waiter parked, so the queued readiness must be swept at teardown,
    // not leaked or spuriously delivered.
    //
    // Only sound when this op is the channel's *sole* consume: the op
    // completes only after every produced token arrived, and a write
    // happens-before its token is readable, so no producer can still
    // write. With a second consume op anywhere (found by fuzz seed 76,
    // `corpus/churn-shutdown-late-producer.txt`), this op can
    // finish on an early producer's tokens while another produce is
    // still pending — the SHUT_WR then fails those writes with EPIPE
    // and the remaining consume deadlocks on tokens that never arrive.
    let sole_consume = scn
        .procs
        .iter()
        .flat_map(|p| &p.threads)
        .flat_map(|t| &t.phases)
        .flatten()
        .filter(|op| matches!(op, Op::Consume { chan: c, .. } if *c == chan))
        .count()
        == 1;
    if via == Mechanism::EpollChurn && scn.chans[chan] == ChanKind::Sock && sole_consume {
        b.i32(slot as i32)
            .load32(4)
            .extend_u()
            .i64(SHUT_WR as i64)
            .call(ctx.sys.shutdown)
            .drop_();
    }
}

/// `pollfd { fd, events: POLLIN, revents: 0 }` at the thread's scratch.
fn emit_pollfd(b: &mut FuncBuilder, slot: u32, scratch: u32) {
    let pfd = scratch + SCRATCH_PFD;
    b.i32(pfd as i32).i32(slot as i32).load32(0).store32(0);
    // Single store packs events=POLLIN, revents=0 (little-endian i16s).
    b.i32(pfd as i32)
        .i32(wali_abi::flags::POLLIN as i32)
        .store32(4);
}

fn emit_epoll_ctl(b: &mut FuncBuilder, ctx: &Ctx, op: i32, slot: u32, events: u32, scratch: u32) {
    let ev = scratch + SCRATCH_EV;
    b.i32(ev as i32).i32(events as i32).store32(0);
    b.i32(ev as i32).i64(0).store64(4);
    b.local_get(ctx.l_epfd)
        .i64(op as i64)
        .i32(slot as i32)
        .load32(0)
        .extend_u()
        .i64(ev as i64)
        .call(ctx.sys.epoll_ctl)
        .drop_();
}

/// One blocking read issued through the batched-syscall ring: a fresh
/// 1-entry SQ/CQ ring in the thread's scratch carries a single `READ`
/// SQE and is drained with `wali_ring_enter(ring, 1, 1, 0)`, which
/// parks until the completion posts. A negative return (`-ENOSYS`,
/// rings toggled off) falls back to the identical plain blocking read.
fn emit_ring_read(b: &mut FuncBuilder, ctx: &Ctx, slot: u32, buf: u32, len: u32, scratch: u32) {
    let ring = scratch + SCRATCH_RING;
    // Header: sq_entries=1, cq_entries=1, sq_head=0, sq_tail=1,
    // cq_head=0, cq_tail=0, flags=reserved=0.
    b.i32(ring as i32).i64(1 | (1 << 32)).store64(0);
    b.i32(ring as i32).i64(1 << 32).store64(8);
    b.i32(ring as i32).i64(0).store64(16);
    b.i32(ring as i32).i64(0).store64(24);
    // SQE 0 at ring+32: READ(fd = consumer side, addr = buf, len).
    b.i32(ring as i32)
        .i32(wali_abi::ring::op::READ as i32)
        .store32(32);
    b.i32(ring as i32).i32(slot as i32).load32(0).store32(36);
    b.i32(ring as i32).i32(buf as i32).store32(40);
    b.i32(ring as i32).i32(len as i32).store32(44);
    b.i32(ring as i32).i64(0).store64(48);
    b.i32(ring as i32).i64(0).store64(56);
    b.i64(ring as i64)
        .i64(1)
        .i64(1)
        .i64(0)
        .call(ctx.sys.ring_enter)
        .local_set(ctx.l_ret);
    b.local_get(ctx.l_ret).i64(0).lt_s64();
    b.if_(BlockType::Empty, |b| {
        b.i32(slot as i32)
            .load32(0)
            .extend_u()
            .i64(buf as i64)
            .i64(len as i64)
            .call(ctx.sys.read)
            .drop_();
    });
}

/// Runs `body` `n` times via a wasm counter loop (constant-size code for
/// any token count).
fn emit_repeat(b: &mut FuncBuilder, ctx: &Ctx, n: u32, body: impl Fn(&mut FuncBuilder, &Ctx)) {
    if n == 1 {
        body(b, ctx);
        return;
    }
    b.i32(0).local_set(ctx.l_i);
    b.loop_(BlockType::Empty, |b| {
        body(b, ctx);
        b.local_get(ctx.l_i)
            .i32(1)
            .add32()
            .local_tee(ctx.l_i)
            .i32(n as i32)
            .lt_s32()
            .br_if(0);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use wali::testkit::{run_modules, RunnerOpts};

    /// A hand-written scenario touching every mechanism family: pipe +
    /// sock + eventfd channels, all six consume mechanisms spread over
    /// two scenarios, futexes, threads, a victim, a vfork-exec leaf,
    /// and a handled signal.
    fn kitchen_sink() -> Scenario {
        Scenario {
            chans: vec![ChanKind::Pipe, ChanKind::Sock, ChanKind::EventFd],
            futex_words: 1,
            procs: vec![
                // Root: produces everything in phase 0, kills in phase 1,
                // two extra threads.
                Proc {
                    kind: ProcKind::Normal,
                    children: vec![1, 2, 3],
                    handles: vec![],
                    threads: vec![
                        ThreadPlan {
                            phases: vec![
                                vec![
                                    Op::Produce { chan: 0, tokens: 3 },
                                    Op::Produce { chan: 2, tokens: 2 },
                                ],
                                vec![
                                    Op::Kill {
                                        target: 2,
                                        signo: SIGTERM,
                                    },
                                    Op::Kill {
                                        target: 1,
                                        signo: 10,
                                    },
                                ],
                            ],
                        },
                        ThreadPlan {
                            phases: vec![
                                vec![Op::Produce { chan: 1, tokens: 2 }],
                                vec![Op::Consume {
                                    chan: 2,
                                    tokens: 2,
                                    via: Mechanism::EpollLt,
                                }],
                            ],
                        },
                    ],
                },
                // Child 1: consumes, futex-coordinates its second thread,
                // awaits SIGUSR1.
                Proc {
                    kind: ProcKind::Normal,
                    children: vec![],
                    handles: vec![10],
                    threads: vec![
                        ThreadPlan {
                            phases: vec![
                                vec![Op::FutexSet { word: 0 }],
                                vec![
                                    Op::Consume {
                                        chan: 0,
                                        tokens: 3,
                                        via: Mechanism::Poll,
                                    },
                                    Op::Sleep { ns: 500_000 },
                                ],
                                vec![Op::AwaitSignal { signo: 10 }],
                            ],
                        },
                        ThreadPlan {
                            phases: vec![
                                vec![],
                                vec![Op::FutexWait { word: 0 }],
                                vec![Op::Consume {
                                    chan: 1,
                                    tokens: 2,
                                    via: Mechanism::EpollOneshot,
                                }],
                            ],
                        },
                    ],
                },
                Proc::leaf(ProcKind::Victim),
                Proc::leaf(ProcKind::VforkExec),
            ],
        }
    }

    fn run_scenario(scn: &Scenario, opts: RunnerOpts) -> wali::testkit::RunReport {
        let modules = scn.emit();
        run_modules(&modules.programs(), MAIN_PATH, &[], &[], opts).expect("run")
    }

    #[test]
    fn kitchen_sink_matches_model_and_leaks_nothing() {
        let scn = kitchen_sink();
        scn.validate().expect("valid");
        let report = run_scenario(&scn, RunnerOpts::single());
        let obs = report.outcome.observables();
        assert_eq!(
            obs.main_exit.as_deref(),
            Some("Exited(10)"),
            "root exit: {:?} console {:?}",
            report.outcome.main_exit,
            report.outcome.stdout()
        );
        assert_eq!(obs.console_lines, scn.expected_console());
        assert!(
            report.leaks.is_clean(),
            "teardown leaks: {} ends {:?}",
            report.leaks.describe(),
            report.outcome.ends
        );
        // The victim died of SIGTERM (143), the leaf exited 9.
        assert!(
            obs.ends.iter().any(|e| e == "Exited(143)"),
            "{:?}",
            obs.ends
        );
        assert!(obs.ends.iter().any(|e| e == "Exited(9)"), "{:?}", obs.ends);
    }

    #[test]
    fn kitchen_sink_observables_equal_across_workers() {
        let scn = kitchen_sink();
        let single = run_scenario(&scn, RunnerOpts::single());
        let smp = run_scenario(
            &scn,
            RunnerOpts {
                workers: Some(4),
                ..RunnerOpts::default()
            },
        );
        assert_eq!(
            single.outcome.observables(),
            smp.outcome.observables(),
            "SMP run must preserve the observable multiset"
        );
        assert!(smp.leaks.is_clean(), "{}", smp.leaks.describe());
    }

    #[test]
    fn direct_ppoll_and_et_mechanisms_run_clean() {
        // The mechanisms kitchen_sink doesn't cover: Direct, Ppoll,
        // EpollEt, an eventfd consumed via Direct accumulation, and a
        // churned socket (DEL/ADD storms + producer half-close).
        let scn = Scenario {
            chans: vec![
                ChanKind::Pipe,
                ChanKind::Pipe,
                ChanKind::EventFd,
                ChanKind::Sock,
            ],
            futex_words: 0,
            procs: vec![
                Proc {
                    kind: ProcKind::Normal,
                    children: vec![1],
                    handles: vec![],
                    threads: vec![ThreadPlan {
                        phases: vec![
                            vec![
                                Op::Produce { chan: 0, tokens: 2 },
                                Op::Produce { chan: 1, tokens: 1 },
                                Op::Produce { chan: 2, tokens: 3 },
                                Op::Produce { chan: 3, tokens: 2 },
                            ],
                            vec![],
                        ],
                    }],
                },
                Proc {
                    kind: ProcKind::Normal,
                    children: vec![],
                    handles: vec![],
                    threads: vec![ThreadPlan {
                        phases: vec![
                            vec![],
                            vec![
                                Op::Consume {
                                    chan: 0,
                                    tokens: 2,
                                    via: Mechanism::Ppoll,
                                },
                                Op::Consume {
                                    chan: 1,
                                    tokens: 1,
                                    via: Mechanism::EpollEt,
                                },
                                Op::Consume {
                                    chan: 2,
                                    tokens: 3,
                                    via: Mechanism::Direct,
                                },
                                Op::Consume {
                                    chan: 3,
                                    tokens: 2,
                                    via: Mechanism::EpollChurn,
                                },
                            ],
                        ],
                    }],
                },
            ],
        };
        scn.validate().expect("valid");
        let report = run_scenario(&scn, RunnerOpts::single());
        let obs = report.outcome.observables();
        assert_eq!(obs.main_exit.as_deref(), Some("Exited(10)"));
        assert_eq!(obs.console_lines, scn.expected_console());
        assert!(report.leaks.is_clean(), "{}", report.leaks.describe());
    }

    #[test]
    fn ring_mechanism_matches_sync_fallback() {
        // A ring-driven server: one producer process feeds a pipe, a
        // socketpair and an eventfd; the consumer process drains all
        // three through `wali_ring_enter` READ SQEs across two threads.
        // The same scenario under WALI_NO_RING takes the -ENOSYS
        // fallback (plain blocking reads); observables must agree — the
        // in-tree version of the fuzzer's `workers=1 no-ring` leg.
        let scn = Scenario {
            chans: vec![ChanKind::Pipe, ChanKind::Sock, ChanKind::EventFd],
            futex_words: 0,
            procs: vec![
                Proc {
                    kind: ProcKind::Normal,
                    children: vec![1],
                    handles: vec![],
                    threads: vec![ThreadPlan {
                        phases: vec![
                            vec![
                                Op::Produce { chan: 0, tokens: 3 },
                                Op::Produce { chan: 1, tokens: 2 },
                                Op::Produce { chan: 2, tokens: 2 },
                            ],
                            vec![],
                        ],
                    }],
                },
                Proc {
                    kind: ProcKind::Normal,
                    children: vec![],
                    handles: vec![],
                    threads: vec![
                        ThreadPlan {
                            phases: vec![
                                vec![],
                                vec![
                                    Op::Consume {
                                        chan: 0,
                                        tokens: 3,
                                        via: Mechanism::Ring,
                                    },
                                    Op::Consume {
                                        chan: 2,
                                        tokens: 2,
                                        via: Mechanism::Ring,
                                    },
                                ],
                            ],
                        },
                        ThreadPlan {
                            phases: vec![
                                vec![],
                                vec![Op::Consume {
                                    chan: 1,
                                    tokens: 2,
                                    via: Mechanism::Ring,
                                }],
                            ],
                        },
                    ],
                },
            ],
        };
        scn.validate().expect("valid");
        let ring = run_scenario(&scn, RunnerOpts::single());
        assert!(ring.leaks.is_clean(), "{}", ring.leaks.describe());
        let obs = ring.outcome.observables();
        assert_eq!(obs.console_lines, scn.expected_console());
        let sync = run_scenario(
            &scn,
            RunnerOpts {
                ring: Some(false),
                ..RunnerOpts::single()
            },
        );
        assert_eq!(
            obs,
            sync.outcome.observables(),
            "ring vs WALI_NO_RING fallback"
        );
        let smp = run_scenario(
            &scn,
            RunnerOpts {
                workers: Some(4),
                ..RunnerOpts::default()
            },
        );
        assert_eq!(obs, smp.outcome.observables(), "ring under SMP");
        assert!(smp.leaks.is_clean(), "{}", smp.leaks.describe());
    }

    #[test]
    fn validate_rejects_structural_hazards() {
        let mut scn = kitchen_sink();
        // Unbalanced channel.
        scn.procs[0].threads[0].phases[0][0] = Op::Produce { chan: 0, tokens: 4 };
        assert!(scn.validate().is_err());

        // Consume in the same phase as its produce.
        let mut scn = kitchen_sink();
        scn.procs[1].threads[0].phases[1][0] = Op::Consume {
            chan: 0,
            tokens: 3,
            via: Mechanism::Poll,
        };
        scn.procs[0].threads[0].phases[1].push(Op::Produce { chan: 0, tokens: 3 });
        scn.procs[0].threads[0].phases[0].remove(0);
        assert!(scn.validate().is_err());

        // Edge-triggered multi-token consume.
        let mut scn = kitchen_sink();
        scn.procs[1].threads[0].phases[1][0] = Op::Consume {
            chan: 0,
            tokens: 3,
            via: Mechanism::EpollEt,
        };
        assert!(scn.validate().is_err());

        // Kill from a non-parent.
        let mut scn = kitchen_sink();
        scn.procs[1].threads[0].phases[2].push(Op::Kill {
            target: 2,
            signo: SIGTERM,
        });
        assert!(scn.validate().is_err());

        // Victim that nobody kills.
        let mut scn = kitchen_sink();
        scn.procs[0].threads[0].phases[1].remove(0);
        assert!(scn.validate().is_err());

        // Await with no earlier kill.
        let mut scn = kitchen_sink();
        scn.procs[0].threads[0].phases[1].remove(1);
        assert!(scn.validate().is_err());
    }
}
