//! The executable Wasm programs of the suite.

use std::collections::BTreeSet;

use wasi_layer::Feature;
use wasm::build::{FuncId, ModuleBuilder};
use wasm::instr::BlockType;
use wasm::types::ValType::{I32, I64};
use wasm::Module;

/// One workload: the Wasm program plus its metadata.
pub struct App {
    /// Short name (Table 1 row / Fig. 2 label).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The program.
    pub module: Module,
    /// Features the codebase requires (drives the porting matrix).
    pub required: BTreeSet<Feature>,
    /// Whether the Fig. 8 emulator tier can run it (single-process apps).
    pub emulatable: bool,
}

/// Imports `SYS_<name>` with `n` i64 params returning i64.
pub fn sys(mb: &mut ModuleBuilder, name: &str, n: usize) -> FuncId {
    let sig = mb.sig(vec![I64; n], [I64]);
    mb.import_func("wali", &format!("SYS_{name}"), sig)
}

fn feats(list: &[Feature]) -> BTreeSet<Feature> {
    list.iter().copied().collect()
}

/// `lua`-like interpreter workload.
///
/// A register VM dispatch loop over a synthetic "bytecode" string (loaded
/// from a script file), with interpreter-typical behaviour: a hot
/// dispatch loop, frequent small heap growth (`brk`), periodic output.
/// `scale` controls the executed instruction count.
pub fn lua_sim(scale: u32) -> App {
    let mut mb = ModuleBuilder::new();
    let open = sys(&mut mb, "open", 3);
    let read = sys(&mut mb, "read", 3);
    let close = sys(&mut mb, "close", 1);
    let write = sys(&mut mb, "write", 3);
    let brk = sys(&mut mb, "brk", 1);
    let clock = sys(&mut mb, "clock_gettime", 2);
    mb.memory(4, Some(256));
    let script_path = mb.c_str("/tmp/script.lua");
    let script_buf = mb.reserve(4096);
    let out_msg = mb.c_str("lua: done\n");
    let ts = mb.reserve(16);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let fd = b.local(I64);
        let acc = b.local(I64);
        let pc = b.local(I32);
        let n = b.local(I32);
        let heap = b.local(I64);
        let i = b.local(I32);

        // Load the "script" (created by the harness; missing is fine —
        // fall back to a built-in program of 64 ops).
        b.i64(script_path as i64)
            .i64(0)
            .i64(0)
            .call(open)
            .local_set(fd);
        b.local_get(fd).i64(0).lt_s64();
        b.if_else(
            BlockType::Value(I32),
            |b| {
                b.i32(64);
            },
            |b| {
                b.local_get(fd)
                    .i64(script_buf as i64)
                    .i64(4096)
                    .call(read)
                    .wrap();
                b.local_get(fd).call(close).drop_();
            },
        );
        b.local_set(n);

        // Interpreter loop: scale rounds over the script; opcode = byte%8.
        let rounds = scale.max(1) as i32;
        let round = b.local(I32);
        b.loop_(BlockType::Empty, |b| {
            b.i32(0).local_set(pc);
            b.loop_(BlockType::Empty, |b| {
                // opcode dispatch on script_buf[pc] & 7
                let op = b.local(I32);
                b.i32(script_buf as i32)
                    .local_get(pc)
                    .add32()
                    .load8u(0)
                    .i32(7)
                    .and32()
                    .local_set(op);
                // op 0..3: arithmetic on acc; 4: "concat" (alloc via brk
                // every 64th); 5..7: hash mix.
                b.local_get(op).i32(4).eq32();
                b.if_(BlockType::Empty, |b| {
                    b.local_get(i).i32(63).and32().eqz32();
                    b.if_(BlockType::Empty, |b| {
                        // grow the interpreter heap by 256 bytes, GC-style.
                        b.i64(0).call(brk).local_set(heap);
                        b.local_get(heap).i64(256).add64().call(brk).drop_();
                    });
                });
                b.local_get(acc).i64(0x9e3779b9).add64();
                b.local_get(op).extend_u().add64();
                b.i64(31)
                    .emit(wasm::instr::Instr::Bin(wasm::instr::BinOp::I64Mul));
                b.local_set(acc);
                b.local_get(i).i32(1).add32().local_set(i);
                b.local_get(pc).i32(1).add32().local_tee(pc);
                b.local_get(n).lt_s32().br_if(0);
            });
            // Interpreter "timer" check each round (lua os.clock pattern).
            b.i64(1).i64(ts as i64).call(clock).drop_();
            b.local_get(round).i32(1).add32().local_tee(round);
            b.i32(rounds).lt_s32().br_if(0);
        });
        b.i64(1).i64(out_msg as i64).i64(10).call(write).drop_();
        // Exit code: low bits of the accumulator (deterministic).
        b.local_get(acc).i64(0).eq64();
    });
    mb.export("_start", main);
    App {
        name: "lua",
        description: "Interpreter",
        module: mb.build(),
        required: feats(&[Feature::BasicFs, Feature::Dup, Feature::Sysconf]),
        emulatable: true,
    }
}

/// `bash`-like shell workload: pipelines, job control, SIGCHLD.
pub fn bash_sim(jobs: u32) -> App {
    let mut mb = ModuleBuilder::new();
    let fork = sys(&mut mb, "fork", 0);
    let pipe = sys(&mut mb, "pipe", 1);
    let dup3 = sys(&mut mb, "dup3", 3);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let close = sys(&mut mb, "close", 1);
    let wait4 = sys(&mut mb, "wait4", 4);
    let sigaction = sys(&mut mb, "rt_sigaction", 4);
    let getpid = sys(&mut mb, "getpid", 0);
    let exit = sys(&mut mb, "exit_group", 1);
    mb.memory(4, Some(64));

    // SIGCHLD handler bumps a counter at mem[512].
    let hsig = mb.sig([I32], []);
    let dummy = mb.func(hsig, |_| {});
    let chld = mb.func(hsig, |b| {
        b.i32(512).i32(512).load32(0).i32(1).add32().store32(0);
    });
    mb.table_entries(&[dummy, dummy, chld]);

    let act = mb.reserve(24);
    let fds = mb.reserve(8);
    let cmd = mb.c_str("echo hello | wc -l");
    let buf = mb.reserve(128);
    let prompt = mb.c_str("$ ");
    let status = mb.reserve(4);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let pid = b.local(I64);
        let j = b.local(I32);
        // Install the SIGCHLD handler (slot 2).
        b.i32(act as i32).i32(2).store32(0);
        b.i64(17)
            .i64(act as i64)
            .i64(0)
            .i64(8)
            .call(sigaction)
            .drop_();

        let jobs = jobs.max(1) as i32;
        b.loop_(BlockType::Empty, |b| {
            // "Prompt", then spawn a pipeline: child writes through the
            // pipe; parent (shell) reads the output, waits, reaps.
            b.i64(1).i64(prompt as i64).i64(2).call(write).drop_();
            b.i64(fds as i64).call(pipe).drop_();
            b.call(fork).local_set(pid);
            b.local_get(pid).i64(0).eq64();
            b.if_(BlockType::Empty, |b| {
                // Child: stdout := pipe write end (dup3), echo the cmd.
                b.i32(fds as i32 + 4)
                    .load32(0)
                    .extend_u()
                    .i64(1)
                    .i64(0)
                    .call(dup3)
                    .drop_();
                b.i32(fds as i32).load32(0).extend_u().call(close).drop_();
                b.call(getpid).drop_();
                b.i64(1).i64(cmd as i64).i64(18).call(write).drop_();
                b.i64(0).call(exit).drop_();
            });
            // Shell: close write end, read child output, wait.
            b.i32(fds as i32 + 4)
                .load32(0)
                .extend_u()
                .call(close)
                .drop_();
            b.i32(fds as i32)
                .load32(0)
                .extend_u()
                .i64(buf as i64)
                .i64(128)
                .call(read)
                .drop_();
            b.i32(fds as i32).load32(0).extend_u().call(close).drop_();
            b.local_get(pid)
                .i64(status as i64)
                .i64(0)
                .i64(0)
                .call(wait4)
                .drop_();
            b.local_get(j)
                .i32(1)
                .add32()
                .local_tee(j)
                .i32(jobs)
                .lt_s32()
                .br_if(0);
        });
        // Exit 0 iff every SIGCHLD was observed (handler ran per job).
        b.i32(512).load32(0).i32(jobs).ne32();
    });
    mb.export("_start", main);
    App {
        name: "bash",
        description: "Shell",
        module: mb.build(),
        required: feats(&[
            Feature::BasicFs,
            Feature::Signals,
            Feature::Fork,
            Feature::Wait4,
            Feature::Pipes,
            Feature::Dup,
            Feature::ProcessGroups,
        ]),
        emulatable: false,
    }
}

/// Single-process `bash` variant for the emulator tier (builtin loop, no
/// fork) — the paper runs bash under QEMU as a whole VM; our emulator
/// models single-address-space execution.
pub fn bash_builtin_sim(iterations: u32) -> App {
    let mut mb = ModuleBuilder::new();
    let write = sys(&mut mb, "write", 3);
    let open = sys(&mut mb, "open", 3);
    let close = sys(&mut mb, "close", 1);
    let getpid = sys(&mut mb, "getpid", 0);
    mb.memory(4, Some(64));
    let prompt = mb.c_str("$ ");
    let path = mb.c_str("/tmp/.bash_history");
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let i = b.local(I32);
        let acc = b.local(I64);
        let iters = iterations.max(1) as i32;
        b.loop_(BlockType::Empty, |b| {
            // Builtin evaluation: tokenize-ish bit twiddling plus history
            // file append and prompt writes.
            b.local_get(acc)
                .i64(0x5bd1e995)
                .add64()
                .i64(33)
                .emit(wasm::instr::Instr::Bin(wasm::instr::BinOp::I64Mul))
                .local_set(acc);
            b.local_get(i).i32(255).and32().eqz32();
            b.if_(BlockType::Empty, |b| {
                b.i64(1).i64(prompt as i64).i64(2).call(write).drop_();
                b.i64(path as i64).i64(0o102).i64(0o600).call(open);
                let fd = b.local(I64);
                b.local_set(fd);
                b.local_get(fd)
                    .i64(prompt as i64)
                    .i64(2)
                    .call(write)
                    .drop_();
                b.local_get(fd).call(close).drop_();
                b.call(getpid).drop_();
            });
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(iters)
                .lt_s32()
                .br_if(0);
        });
        b.i32(0);
    });
    mb.export("_start", main);
    App {
        name: "bash",
        description: "Shell (builtin loop)",
        module: mb.build(),
        required: feats(&[Feature::BasicFs, Feature::Signals]),
        emulatable: true,
    }
}

/// `sqlite`-like page store: mmap'd database pages, B-tree-ish inserts.
pub fn sqlite_sim(rows: u32) -> App {
    let mut mb = ModuleBuilder::new();
    let open = sys(&mut mb, "open", 3);
    let ftruncate = sys(&mut mb, "ftruncate", 2);
    let mmap = sys(&mut mb, "mmap", 6);
    let mremap = sys(&mut mb, "mremap", 5);
    let msync = sys(&mut mb, "msync", 3);
    let munmap = sys(&mut mb, "munmap", 2);
    let pwrite = sys(&mut mb, "pwrite64", 4);
    let pread = sys(&mut mb, "pread64", 4);
    let fsync = sys(&mut mb, "fsync", 1);
    let close = sys(&mut mb, "close", 1);
    mb.memory(8, Some(256));
    let db_path = mb.c_str("/tmp/test.db");
    let journal = mb.c_str("/tmp/test.db-journal");
    let scratch = mb.reserve(64);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let fd = b.local(I64);
        let jfd = b.local(I64);
        let base = b.local(I64);
        let i = b.local(I32);
        let slot = b.local(I32);

        // Open + size the database file, mmap 4 pages MAP_SHARED.
        b.i64(db_path as i64)
            .i64(0o102)
            .i64(0o644)
            .call(open)
            .local_set(fd);
        b.local_get(fd).i64(16384).call(ftruncate).drop_();
        b.i64(0)
            .i64(16384)
            .i64(3)
            .i64(0x01)
            .local_get(fd)
            .i64(0)
            .call(mmap)
            .local_set(base);

        let rows = rows.max(1) as i32;
        b.loop_(BlockType::Empty, |b| {
            // "B-tree insert": hash the key to a slot and store key/value
            // in the mapped page (16-byte cells).
            b.local_get(i)
                .i32(2654435761u32 as i32)
                .mul32()
                .i32(1023)
                .and32()
                .local_set(slot);
            b.local_get(base)
                .wrap()
                .local_get(slot)
                .i32(16)
                .mul32()
                .add32();
            b.local_get(i).store32(0);
            b.local_get(base)
                .wrap()
                .local_get(slot)
                .i32(16)
                .mul32()
                .add32();
            b.local_get(i).i32(7).mul32().store32(4);

            // Journal append every 32 rows (write-ahead pattern), then
            // fsync — the sqlite checkpoint shape.
            b.local_get(i).i32(31).and32().eqz32();
            b.if_(BlockType::Empty, |b| {
                b.i64(journal as i64)
                    .i64(0o2102)
                    .i64(0o644)
                    .call(open)
                    .local_set(jfd);
                b.local_get(jfd)
                    .i64(scratch as i64)
                    .i64(32)
                    .i64(0)
                    .call(pwrite)
                    .drop_();
                b.local_get(jfd).call(fsync).drop_();
                b.local_get(jfd).call(close).drop_();
                b.local_get(base).i64(16384).i64(4).call(msync).drop_();
            });
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(rows)
                .lt_s32()
                .br_if(0);
        });

        // Grow the mapping (database file grew): mremap to 8 pages.
        b.local_get(base)
            .i64(16384)
            .i64(32768)
            .i64(1)
            .i64(0)
            .call(mremap)
            .local_set(base);
        // Point query via pread (cold page path).
        b.local_get(fd)
            .i64(scratch as i64)
            .i64(16)
            .i64(128)
            .call(pread)
            .drop_();
        b.local_get(base).i64(32768).call(munmap).drop_();
        b.local_get(fd).call(close).drop_();
        b.i32(0);
    });
    mb.export("_start", main);
    App {
        name: "sqlite3",
        description: "Database",
        module: mb.build(),
        required: feats(&[Feature::BasicFs, Feature::Mmap, Feature::Mremap]),
        emulatable: true,
    }
}

/// `memcached`-like threaded KV server with loopback clients.
pub fn memcached_sim(requests: u32) -> App {
    let mut mb = ModuleBuilder::new();
    let socket = sys(&mut mb, "socket", 3);
    let bind = sys(&mut mb, "bind", 3);
    let listen = sys(&mut mb, "listen", 2);
    let accept = sys(&mut mb, "accept", 3);
    let connect = sys(&mut mb, "connect", 3);
    let setsockopt = sys(&mut mb, "setsockopt", 5);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let close = sys(&mut mb, "close", 1);
    let clone = sys(&mut mb, "clone", 5);
    let exit = sys(&mut mb, "exit", 1);
    mb.memory(8, Some(256));

    // sockaddr_in 127.0.0.1:11211.
    let addr = mb.reserve(16);
    let addr_init = {
        let mut bytes = [0u8; 16];
        bytes[0..2].copy_from_slice(&2u16.to_le_bytes());
        bytes[2..4].copy_from_slice(&11211u16.to_be_bytes());
        bytes[4..8].copy_from_slice(&[127, 0, 0, 1]);
        bytes
    };
    mb.data_at(addr, &addr_init);
    let req = mb.c_str("set k 0 0 5 hello");
    let reply = mb.c_str("STORED");
    let buf = mb.reserve(256);
    // Shared slots: [768] = server-ready flag, [772] = served count.
    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let tidv = b.local(I64);
        let srv = b.local(I64);
        let conn = b.local(I64);
        let cli = b.local(I64);
        let i = b.local(I32);
        let n = requests.max(1) as i32;

        // Spawn the server thread (CLONE_VM|THREAD|SIGHAND).
        b.i64(0x10900)
            .i64(0)
            .i64(0)
            .i64(0)
            .i64(0)
            .call(clone)
            .local_set(tidv);
        b.local_get(tidv).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            // --- server thread ---
            b.i64(2).i64(1).i64(0).call(socket).local_set(srv);
            b.local_get(srv)
                .i64(1)
                .i64(2)
                .i64(addr as i64 + 12)
                .i64(4)
                .call(setsockopt)
                .drop_();
            b.local_get(srv).i64(addr as i64).i64(16).call(bind).drop_();
            b.local_get(srv).i64(64).call(listen).drop_();
            b.i32(768).i32(1).store32(0); // ready
            let j = b.local(I32);
            b.loop_(BlockType::Empty, |b| {
                b.local_get(srv).i64(0).i64(0).call(accept).local_set(conn);
                b.local_get(conn)
                    .i64(buf as i64 + 128)
                    .i64(64)
                    .call(read)
                    .drop_();
                b.local_get(conn)
                    .i64(reply as i64)
                    .i64(6)
                    .call(write)
                    .drop_();
                b.local_get(conn).call(close).drop_();
                b.i32(772).i32(772).load32(0).i32(1).add32().store32(0);
                b.local_get(j)
                    .i32(1)
                    .add32()
                    .local_tee(j)
                    .i32(n)
                    .lt_s32()
                    .br_if(0);
            });
            b.i64(0).call(exit).drop_();
        });

        // --- client (main thread): wait for readiness, then hammer. ---
        b.loop_(BlockType::Empty, |b| {
            b.i32(768).load32(0).eqz32().br_if(0);
        });
        b.loop_(BlockType::Empty, |b| {
            b.i64(2).i64(1).i64(0).call(socket).local_set(cli);
            b.local_get(cli)
                .i64(addr as i64)
                .i64(16)
                .call(connect)
                .drop_();
            b.local_get(cli).i64(req as i64).i64(17).call(write).drop_();
            b.local_get(cli).i64(buf as i64).i64(64).call(read).drop_();
            b.local_get(cli).call(close).drop_();
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(n)
                .lt_s32()
                .br_if(0);
        });
        // Exit 0 iff the server served all requests.
        b.loop_(BlockType::Empty, |b| {
            b.i32(772).load32(0).i32(n).lt_s32().br_if(0);
        });
        b.i32(0);
    });
    mb.export("_start", main);
    App {
        name: "memcached",
        description: "System Daemon",
        module: mb.build(),
        required: feats(&[
            Feature::BasicFs,
            Feature::Sockets,
            Feature::Threads,
            Feature::SockOpt,
            Feature::Mmap,
            Feature::Poll,
        ]),
        emulatable: false,
    }
}

/// `memcached`-style **event-loop** server: one server thread multiplexes
/// every connection with `epoll_create1`/`epoll_ctl`/`epoll_wait`, while
/// `clients` concurrent client threads each hold one connection open and
/// pipeline `requests` request/reply round trips over it.
///
/// This is the paper's server-workload shape (§6) on the event-driven
/// scheduler: the server parks in `epoll_wait` and is woken only by
/// connection attempts and request bytes; the clients park in blocking
/// `read` and are woken by the reply.
pub fn epoll_server_sim(clients: u32, requests: u32) -> App {
    let mut mb = ModuleBuilder::new();
    let socket = sys(&mut mb, "socket", 3);
    let bind = sys(&mut mb, "bind", 3);
    let listen = sys(&mut mb, "listen", 2);
    let accept = sys(&mut mb, "accept", 3);
    let connect = sys(&mut mb, "connect", 3);
    let setsockopt = sys(&mut mb, "setsockopt", 5);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let close = sys(&mut mb, "close", 1);
    let clone = sys(&mut mb, "clone", 5);
    let exit = sys(&mut mb, "exit", 1);
    let ep_create = sys(&mut mb, "epoll_create1", 1);
    let ep_ctl = sys(&mut mb, "epoll_ctl", 4);
    let ep_wait = sys(&mut mb, "epoll_wait", 4);
    mb.memory(8, Some(256));

    // sockaddr_in 127.0.0.1:11311.
    let addr = mb.reserve(16);
    let addr_init = {
        let mut bytes = [0u8; 16];
        bytes[0..2].copy_from_slice(&2u16.to_le_bytes());
        bytes[2..4].copy_from_slice(&11311u16.to_be_bytes());
        bytes[4..8].copy_from_slice(&[127, 0, 0, 1]);
        bytes
    };
    mb.data_at(addr, &addr_init);
    let req = mb.c_str("get key7");
    let reply = mb.c_str("VALUE ok");
    // epoll_event scratch (registration) + report buffer (16 events).
    let evreg = mb.reserve(12);
    let evbuf = mb.reserve(16 * 12);
    let sbuf = mb.reserve(256);
    let cbuf = mb.reserve(256);
    // Shared slots: [768]=server ready, [772]=requests served,
    // [776]=clients finished.
    let clients = clients.max(1);
    let requests = requests.max(1);
    let total = (clients * requests) as i32;

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let tidv = b.local(I64);
        let srv = b.local(I64);
        let ep = b.local(I64);
        let conn = b.local(I64);
        let cli = b.local(I64);
        let n = b.local(I32);
        let kx = b.local(I32);
        let fdv = b.local(I64);
        let r = b.local(I64);
        let j = b.local(I32);
        let ci = b.local(I32);

        // --- server thread -------------------------------------------------
        b.i64(0x10900)
            .i64(0)
            .i64(0)
            .i64(0)
            .i64(0)
            .call(clone)
            .local_set(tidv);
        b.local_get(tidv).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            b.i64(2).i64(1).i64(0).call(socket).local_set(srv);
            b.local_get(srv)
                .i64(1)
                .i64(2)
                .i64(addr as i64 + 12)
                .i64(4)
                .call(setsockopt)
                .drop_();
            b.local_get(srv).i64(addr as i64).i64(16).call(bind).drop_();
            b.local_get(srv).i64(64).call(listen).drop_();
            b.i64(0).call(ep_create).local_set(ep);
            // Register the listener: events=EPOLLIN, data=srv.
            b.i32(evreg as i32).i32(1).store32(0);
            b.i32(evreg as i32).local_get(srv).store64(4);
            b.local_get(ep)
                .i64(1)
                .local_get(srv)
                .i64(evreg as i64)
                .call(ep_ctl)
                .drop_();
            b.i32(768).i32(1).store32(0); // ready
            b.loop_(BlockType::Empty, |b| {
                // Park until something is readable.
                b.local_get(ep)
                    .i64(evbuf as i64)
                    .i64(16)
                    .i64(-1)
                    .call(ep_wait)
                    .wrap()
                    .local_set(n);
                b.i32(0).local_set(kx);
                b.loop_(BlockType::Empty, |b| {
                    // fd = events[kx].data (low 32 bits, packed at +4).
                    b.i32(evbuf as i32)
                        .local_get(kx)
                        .i32(12)
                        .mul32()
                        .add32()
                        .load32(4)
                        .extend_u()
                        .local_set(fdv);
                    b.local_get(fdv).local_get(srv).eq64();
                    b.if_else(
                        BlockType::Empty,
                        |b| {
                            // New connection: accept + watch it.
                            b.local_get(srv).i64(0).i64(0).call(accept).local_set(conn);
                            b.i32(evreg as i32).i32(1).store32(0);
                            b.i32(evreg as i32).local_get(conn).store64(4);
                            b.local_get(ep)
                                .i64(1)
                                .local_get(conn)
                                .i64(evreg as i64)
                                .call(ep_ctl)
                                .drop_();
                        },
                        |b| {
                            // Request bytes or EOF.
                            b.local_get(fdv)
                                .i64(sbuf as i64)
                                .i64(64)
                                .call(read)
                                .local_set(r);
                            b.local_get(r)
                                .i64(0)
                                .emit(wasm::instr::Instr::Rel(wasm::instr::RelOp::I64LeS));
                            b.if_else(
                                BlockType::Empty,
                                |b| {
                                    // Client hung up: deregister + close.
                                    b.local_get(ep)
                                        .i64(2)
                                        .local_get(fdv)
                                        .i64(0)
                                        .call(ep_ctl)
                                        .drop_();
                                    b.local_get(fdv).call(close).drop_();
                                },
                                |b| {
                                    b.local_get(fdv)
                                        .i64(reply as i64)
                                        .i64(8)
                                        .call(write)
                                        .drop_();
                                    b.i32(772).i32(772).load32(0).i32(1).add32().store32(0);
                                },
                            );
                        },
                    );
                    b.local_get(kx)
                        .i32(1)
                        .add32()
                        .local_tee(kx)
                        .local_get(n)
                        .lt_s32()
                        .br_if(0);
                });
                b.i32(772).load32(0).i32(total).lt_s32().br_if(0);
            });
            b.i64(0).call(exit).drop_();
        });

        // --- client threads ------------------------------------------------
        b.loop_(BlockType::Empty, |b| {
            b.i64(0x10900)
                .i64(0)
                .i64(0)
                .i64(0)
                .i64(0)
                .call(clone)
                .local_set(tidv);
            b.local_get(tidv).i64(0).eq64();
            b.if_(BlockType::Empty, |b| {
                // Wait for the server socket, then connect once and
                // pipeline `requests` round trips on the connection.
                b.loop_(BlockType::Empty, |b| {
                    b.i32(768).load32(0).eqz32().br_if(0);
                });
                b.i64(2).i64(1).i64(0).call(socket).local_set(cli);
                b.local_get(cli)
                    .i64(addr as i64)
                    .i64(16)
                    .call(connect)
                    .drop_();
                b.i32(0).local_set(j);
                b.loop_(BlockType::Empty, |b| {
                    b.local_get(cli).i64(req as i64).i64(8).call(write).drop_();
                    b.local_get(cli).i64(cbuf as i64).i64(64).call(read).drop_();
                    b.local_get(j)
                        .i32(1)
                        .add32()
                        .local_tee(j)
                        .i32(requests as i32)
                        .lt_s32()
                        .br_if(0);
                });
                b.local_get(cli).call(close).drop_();
                b.i32(776).i32(776).load32(0).i32(1).add32().store32(0);
                b.i64(0).call(exit).drop_();
            });
            b.local_get(ci)
                .i32(1)
                .add32()
                .local_tee(ci)
                .i32(clients as i32)
                .lt_s32()
                .br_if(0);
        });

        // Main: wait for every client, then verify the served count.
        b.loop_(BlockType::Empty, |b| {
            b.i32(776).load32(0).i32(clients as i32).lt_s32().br_if(0);
        });
        b.i32(772).load32(0).i32(total).ne32();
    });
    mb.export("_start", main);
    App {
        name: "memcached-epoll",
        description: "Event-loop daemon",
        module: mb.build(),
        required: feats(&[
            Feature::BasicFs,
            Feature::Sockets,
            Feature::Threads,
            Feature::SockOpt,
            Feature::Poll,
        ]),
        emulatable: false,
    }
}

/// Prefork server: the classic pre-`fork(2)` accept-loop daemon (apache/
/// postgres shape) on the COW memory subsystem.
///
/// The parent creates one listening socket, forks `workers` processes
/// that inherit it, then acts as the client: `workers × requests`
/// connect/request/reply round trips served by whichever worker wins the
/// accept race. Each worker parks in `epoll_wait` on the shared listener
/// (waitqueues + epoll), `accept`s, serves one request and loops; a
/// `QUIT` request makes the accepting worker exit. After the load the
/// parent sends one QUIT per worker and reaps them all with `wait4` —
/// fork + COW + waitqueues + epoll end-to-end.
pub fn prefork_server_sim(workers: u32, requests: u32) -> App {
    let mut mb = ModuleBuilder::new();
    let socket = sys(&mut mb, "socket", 3);
    let bind = sys(&mut mb, "bind", 3);
    let listen = sys(&mut mb, "listen", 2);
    let accept = sys(&mut mb, "accept", 3);
    let connect = sys(&mut mb, "connect", 3);
    let setsockopt = sys(&mut mb, "setsockopt", 5);
    let read = sys(&mut mb, "read", 3);
    let write = sys(&mut mb, "write", 3);
    let close = sys(&mut mb, "close", 1);
    let fork = sys(&mut mb, "fork", 0);
    let wait4 = sys(&mut mb, "wait4", 4);
    let exit = sys(&mut mb, "exit_group", 1);
    let ep_create = sys(&mut mb, "epoll_create1", 1);
    let ep_ctl = sys(&mut mb, "epoll_ctl", 4);
    let ep_wait = sys(&mut mb, "epoll_wait", 4);
    mb.memory(8, Some(256));

    // sockaddr_in 127.0.0.1:11411.
    let addr = mb.reserve(16);
    let addr_init = {
        let mut bytes = [0u8; 16];
        bytes[0..2].copy_from_slice(&2u16.to_le_bytes());
        bytes[2..4].copy_from_slice(&11411u16.to_be_bytes());
        bytes[4..8].copy_from_slice(&[127, 0, 0, 1]);
        bytes
    };
    mb.data_at(addr, &addr_init);
    let ping = mb.c_str("ping");
    let pong = mb.c_str("pong");
    let quit = mb.c_str("QUIT");
    let evreg = mb.reserve(12);
    let evbuf = mb.reserve(4 * 12);
    let wbuf = mb.reserve(64);
    let cbuf = mb.reserve(64);
    let status = mb.reserve(4);

    let workers = workers.max(1);
    let requests = requests.max(1);
    let total = (workers * requests) as i32;

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let srv = b.local(I64);
        let pid = b.local(I64);
        let ep = b.local(I64);
        let conn = b.local(I64);
        let cli = b.local(I64);
        let w = b.local(I32);
        let i = b.local(I32);
        let oks = b.local(I32);

        // The listening socket, created before forking so every worker
        // inherits the same open file description.
        b.i64(2).i64(1).i64(0).call(socket).local_set(srv);
        b.local_get(srv)
            .i64(1)
            .i64(2)
            .i64(addr as i64 + 12)
            .i64(4)
            .call(setsockopt)
            .drop_();
        b.local_get(srv).i64(addr as i64).i64(16).call(bind).drop_();
        b.local_get(srv).i64(64).call(listen).drop_();

        // Fork the worker pool.
        b.loop_(BlockType::Empty, |b| {
            b.call(fork).local_set(pid);
            b.local_get(pid).i64(0).eq64();
            b.if_(BlockType::Empty, |b| {
                // ---- worker: epoll-park on the inherited listener ----
                b.i64(0).call(ep_create).local_set(ep);
                b.i32(evreg as i32).i32(1).store32(0);
                b.i32(evreg as i32).local_get(srv).store64(4);
                b.local_get(ep)
                    .i64(1)
                    .local_get(srv)
                    .i64(evreg as i64)
                    .call(ep_ctl)
                    .drop_();
                b.loop_(BlockType::Empty, |b| {
                    b.local_get(ep)
                        .i64(evbuf as i64)
                        .i64(4)
                        .i64(-1)
                        .call(ep_wait)
                        .drop_();
                    // Accept may still block when a sibling won the race;
                    // the next connection wakes us either way.
                    b.local_get(srv).i64(0).i64(0).call(accept).local_set(conn);
                    b.local_get(conn)
                        .i64(wbuf as i64)
                        .i64(16)
                        .call(read)
                        .drop_();
                    b.i32(wbuf as i32).load8u(0).i32('Q' as i32).eq32();
                    b.if_(BlockType::Empty, |b| {
                        b.local_get(conn).call(close).drop_();
                        b.i64(0).call(exit).drop_();
                    });
                    b.local_get(conn)
                        .i64(pong as i64)
                        .i64(4)
                        .call(write)
                        .drop_();
                    b.local_get(conn).call(close).drop_();
                    b.br(0);
                });
            });
            b.local_get(w)
                .i32(1)
                .add32()
                .local_tee(w)
                .i32(workers as i32)
                .lt_s32()
                .br_if(0);
        });

        // ---- parent as client: workers × requests round trips ----
        b.loop_(BlockType::Empty, |b| {
            b.i64(2).i64(1).i64(0).call(socket).local_set(cli);
            b.local_get(cli)
                .i64(addr as i64)
                .i64(16)
                .call(connect)
                .drop_();
            b.local_get(cli).i64(ping as i64).i64(4).call(write).drop_();
            b.local_get(cli).i64(cbuf as i64).i64(16).call(read).drop_();
            b.i32(cbuf as i32).load8u(0).i32('p' as i32).eq32();
            b.if_(BlockType::Empty, |b| {
                b.local_get(oks).i32(1).add32().local_set(oks);
            });
            b.local_get(cli).call(close).drop_();
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(total)
                .lt_s32()
                .br_if(0);
        });

        // ---- shutdown: one QUIT per worker, then reap them all ----
        b.i32(0).local_set(w);
        b.loop_(BlockType::Empty, |b| {
            b.i64(2).i64(1).i64(0).call(socket).local_set(cli);
            b.local_get(cli)
                .i64(addr as i64)
                .i64(16)
                .call(connect)
                .drop_();
            b.local_get(cli).i64(quit as i64).i64(4).call(write).drop_();
            b.local_get(cli).call(close).drop_();
            b.local_get(w)
                .i32(1)
                .add32()
                .local_tee(w)
                .i32(workers as i32)
                .lt_s32()
                .br_if(0);
        });
        b.i32(0).local_set(w);
        b.loop_(BlockType::Empty, |b| {
            b.i64(-1)
                .i64(status as i64)
                .i64(0)
                .i64(0)
                .call(wait4)
                .drop_();
            b.local_get(w)
                .i32(1)
                .add32()
                .local_tee(w)
                .i32(workers as i32)
                .lt_s32()
                .br_if(0);
        });
        // Exit 0 iff every request got its reply.
        b.local_get(oks).i32(total).ne32();
    });
    mb.export("_start", main);
    App {
        name: "prefork",
        description: "Prefork daemon",
        module: mb.build(),
        required: feats(&[
            Feature::BasicFs,
            Feature::Sockets,
            Feature::SockOpt,
            Feature::Fork,
            Feature::Wait4,
            Feature::Poll,
        ]),
        emulatable: false,
    }
}

/// `paho-mqtt`-style pub/sub client against an in-process echo broker.
pub fn paho_mqtt_sim(messages: u32) -> App {
    let mut mb = ModuleBuilder::new();
    let socket = sys(&mut mb, "socket", 3);
    let bind = sys(&mut mb, "bind", 3);
    let sendto = sys(&mut mb, "sendto", 6);
    let recvfrom = sys(&mut mb, "recvfrom", 6);
    let nanosleep = sys(&mut mb, "nanosleep", 2);
    let clone = sys(&mut mb, "clone", 5);
    let exit = sys(&mut mb, "exit", 1);
    let setsockopt = sys(&mut mb, "setsockopt", 5);
    mb.memory(8, Some(128));

    let broker_addr = mb.reserve(16);
    let client_addr = mb.reserve(16);
    for (at, port) in [(broker_addr, 1883u16), (client_addr, 42000u16)] {
        let mut bytes = [0u8; 16];
        bytes[0..2].copy_from_slice(&2u16.to_le_bytes());
        bytes[2..4].copy_from_slice(&port.to_be_bytes());
        bytes[4..8].copy_from_slice(&[127, 0, 0, 1]);
        mb.data_at(at, &bytes);
    }
    let publish = mb.c_str("PUBLISH sensors/temp 21.5");
    let buf = mb.reserve(256);
    let req_ts = mb.reserve(16);

    let sig = mb.sig([], [I32]);
    let main = mb.func(sig, |b| {
        let t = b.local(I64);
        let bsock = b.local(I64);
        let csock = b.local(I64);
        let i = b.local(I32);
        let n = messages.max(1) as i32;

        // Broker thread: echo every datagram back as the PUBACK.
        b.i64(0x10900)
            .i64(0)
            .i64(0)
            .i64(0)
            .i64(0)
            .call(clone)
            .local_set(t);
        b.local_get(t).i64(0).eq64();
        b.if_(BlockType::Empty, |b| {
            b.i64(2).i64(2).i64(0).call(socket).local_set(bsock);
            b.local_get(bsock)
                .i64(broker_addr as i64)
                .i64(16)
                .call(bind)
                .drop_();
            b.i32(768).i32(1).store32(0);
            let j = b.local(I32);
            b.loop_(BlockType::Empty, |b| {
                b.local_get(bsock)
                    .i64(buf as i64 + 128)
                    .i64(64)
                    .i64(0)
                    .i64(0)
                    .i64(0)
                    .call(recvfrom)
                    .drop_();
                b.local_get(bsock)
                    .i64(buf as i64 + 128)
                    .i64(4)
                    .i64(0)
                    .i64(client_addr as i64)
                    .i64(16)
                    .call(sendto)
                    .drop_();
                b.local_get(j)
                    .i32(1)
                    .add32()
                    .local_tee(j)
                    .i32(n)
                    .lt_s32()
                    .br_if(0);
            });
            b.i64(0).call(exit).drop_();
        });

        // Client: bind, QoS-1 publish loop with keepalive sleeps.
        b.loop_(BlockType::Empty, |b| {
            b.i32(768).load32(0).eqz32().br_if(0);
        });
        b.i64(2).i64(2).i64(0).call(socket).local_set(csock);
        b.local_get(csock)
            .i64(1)
            .i64(9)
            .i64(broker_addr as i64 + 12)
            .i64(4)
            .call(setsockopt)
            .drop_();
        b.local_get(csock)
            .i64(client_addr as i64)
            .i64(16)
            .call(bind)
            .drop_();
        b.loop_(BlockType::Empty, |b| {
            b.local_get(csock)
                .i64(publish as i64)
                .i64(25)
                .i64(0)
                .i64(broker_addr as i64)
                .i64(16)
                .call(sendto)
                .drop_();
            // Wait for the PUBACK echo.
            b.local_get(csock)
                .i64(buf as i64)
                .i64(64)
                .i64(0)
                .i64(0)
                .i64(0)
                .call(recvfrom)
                .drop_();
            // Keepalive pacing: 1ms virtual sleep.
            b.i32(req_ts as i32).i64(0).store64(0);
            b.i32(req_ts as i32).i64(1_000_000).store64(8);
            b.i64(req_ts as i64).i64(0).call(nanosleep).drop_();
            b.local_get(i)
                .i32(1)
                .add32()
                .local_tee(i)
                .i32(n)
                .lt_s32()
                .br_if(0);
        });
        b.i32(0);
    });
    mb.export("_start", main);
    App {
        name: "paho-bench",
        description: "MQTT App",
        module: mb.build(),
        required: feats(&[
            Feature::BasicFs,
            Feature::Sockets,
            Feature::SockOpt,
            Feature::Poll,
        ]),
        emulatable: false,
    }
}

/// The runnable suite at benchmark scales (Fig. 2 / Fig. 7 set).
pub fn suite() -> Vec<App> {
    vec![
        lua_sim(50),
        bash_sim(8),
        sqlite_sim(512),
        memcached_sim(32),
        paho_mqtt_sim(24),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wali::runner::WaliRunner;

    fn run(app: App) -> wali::RunOutcome {
        let bytes = wasm::encode::encode(&app.module);
        let module = wasm::decode::decode(&bytes).expect("round trip");
        let mut runner = WaliRunner::new_default();
        // The lua script file the interpreter loads.
        runner
            .kernel
            .lock_ok()
            .vfs
            .write_file(
                "/tmp/script.lua",
                b"print('x'); local t = {1,2,3}; return #t",
            )
            .unwrap();
        runner.register_program("/usr/bin/app", &module).unwrap();
        runner.spawn("/usr/bin/app", &[], &[]).unwrap();
        runner.run().expect("run")
    }

    #[test]
    fn lua_sim_runs_and_allocates() {
        let out = run(lua_sim(4));
        assert_eq!(out.exit_code(), Some(0));
        assert!(
            out.trace.counts.contains_key("brk"),
            "{:?}",
            out.trace.counts
        );
        assert!(out.stdout().contains("lua: done"));
    }

    #[test]
    fn bash_sim_reaps_all_jobs_with_sigchld() {
        let out = run(bash_sim(3));
        assert_eq!(out.exit_code(), Some(0), "all SIGCHLDs observed");
        assert_eq!(out.trace.counts.of("fork"), 3);
        assert_eq!(out.trace.counts.of("wait4"), 3);
        assert!(out.trace.counts.of("pipe") == 3);
    }

    #[test]
    fn sqlite_sim_uses_the_mapping_path() {
        let out = run(sqlite_sim(64));
        assert_eq!(out.exit_code(), Some(0));
        for call in ["mmap", "mremap", "msync", "munmap", "fsync", "pread64"] {
            assert!(out.trace.counts.contains_key(call), "missing {call}");
        }
        // The database file has real content.
        let k = run(sqlite_sim(64));
        assert_eq!(k.exit_code(), Some(0));
    }

    #[test]
    fn memcached_sim_serves_every_request() {
        let out = run(memcached_sim(5));
        assert_eq!(out.exit_code(), Some(0));
        assert_eq!(out.trace.counts.of("clone"), 1);
        assert!(out.trace.counts.of("accept") >= 5);
        assert!(out.trace.counts.of("connect") >= 5);
    }

    #[test]
    fn epoll_server_sim_serves_every_client() {
        let out = run(epoll_server_sim(4, 3));
        assert_eq!(
            out.exit_code(),
            Some(0),
            "all 12 requests served: {:?}",
            out.main_exit
        );
        assert_eq!(out.trace.counts.of("epoll_create1"), 1);
        // Listener + 4 connections added, 4 removed on hangup.
        assert!(
            out.trace.counts.of("epoll_ctl") >= 5,
            "{:?}",
            out.trace.counts
        );
        assert!(out.trace.counts.of("epoll_wait") >= 4);
        assert!(out.trace.counts.of("accept") >= 4);
    }

    #[test]
    fn epoll_server_sim_is_fusion_invariant() {
        // The small server scenario the CI reference-tier gate
        // (`WALI_NO_REGIR=1`) re-runs on the plain stack loop; the name
        // predates the two-tier engine.
        let out = run(epoll_server_sim(2, 2));
        assert_eq!(out.exit_code(), Some(0));
    }

    #[test]
    fn prefork_server_serves_and_reaps_every_worker() {
        let out = run(prefork_server_sim(3, 4));
        assert_eq!(
            out.exit_code(),
            Some(0),
            "all 12 replies received: {:?}",
            out.main_exit
        );
        assert_eq!(out.trace.counts.of("fork"), 3);
        // Blocked calls count one dispatch per retry, so these are floors.
        assert!(out.trace.counts.of("wait4") >= 3, "{:?}", out.trace.counts);
        assert_eq!(
            out.trace.counts.of("epoll_create1"),
            3,
            "one instance per worker"
        );
        // 12 serving accepts + 3 QUIT accepts.
        assert!(
            out.trace.counts.of("accept") >= 15,
            "{:?}",
            out.trace.counts
        );
        assert!(out.trace.counts.of("connect") >= 15);
        // Workers exited, so parent + 3 children report endings.
        assert_eq!(out.ends.len(), 4);
    }

    #[test]
    fn prefork_server_parallel_workers() {
        // The SMP variant of the scenario: with WALI_WORKERS=4 the
        // forked server processes are interpreted on separate host
        // workers and genuinely serve concurrently. Counts only — the
        // reply interleaving is timing-dependent under SMP.
        let app = prefork_server_sim(3, 4);
        let bytes = wasm::encode::encode(&app.module);
        let module = wasm::decode::decode(&bytes).expect("round trip");
        let mut runner = WaliRunner::new_default();
        runner.set_workers(4);
        runner.register_program("/usr/bin/app", &module).unwrap();
        runner.spawn("/usr/bin/app", &[], &[]).unwrap();
        let out = runner.run().expect("run");
        assert_eq!(out.exit_code(), Some(0), "{:?}", out.main_exit);
        assert_eq!(out.trace.counts.of("fork"), 3);
        assert_eq!(out.ends.len(), 4, "parent + 3 workers: {:?}", out.ends);
        assert!(out.trace.counts.of("accept") >= 15);
    }

    #[test]
    fn paho_sim_round_trips_publishes() {
        let out = run(paho_mqtt_sim(4));
        assert_eq!(out.exit_code(), Some(0));
        assert!(out.trace.counts.of("sendto") >= 8, "{:?}", out.trace.counts);
        assert!(out.trace.counts.of("nanosleep") >= 4);
    }

    #[test]
    fn suite_profiles_differ_per_app() {
        // Fig. 2's premise: different applications exercise different
        // syscall subsets.
        let lua = run(lua_sim(2)).trace;
        let sqlite = run(sqlite_sim(32)).trace;
        assert!(lua.counts.contains_key("brk"));
        assert!(!lua.counts.contains_key("mmap"));
        assert!(sqlite.counts.contains_key("mmap"));
    }
}
