//! The six workloads: seeded guest generation, the expected outcome of
//! every guest, and one timed sample (wasm bytes → verified exit).
//!
//! Expected values are constants or arithmetic written here — never read
//! back from the runner under test — and the single-process guests are
//! cross-checked against `virt::EmuRunner`, the independent interpreter,
//! at [`SMALL`] scale during set-up.

use std::time::Instant;

use virt::EmuRunner;
use wali::context::KernelRef;
use wali::{RunOutcome, WaliRunner};
use wali_abi::flags::{AT_FDCWD, O_CREAT, O_RDWR, O_TRUNC};
use wasm::{Module, SafepointScheme};

use crate::guests::{self, IO_BYTES};
use crate::spans::{call, Scope, Spans};
use crate::stats::{us_since, Rng};

/// Path every guest is registered and spawned under.
const GUEST_PATH: &str = "/usr/bin/guest";
/// Script file `apps::lua_sim` interprets, and its length in opcodes.
const LUA_SCRIPT_PATH: &str = "/tmp/script.lua";
const LUA_SCRIPT_LEN: usize = 64;

/// The spans of [`start`] that make up a guest's start-up.
pub const STARTUP_SPANS: [&str; 4] = [
    "wasm.decode",
    "wali.runner_new",
    "wali.register_program",
    "wali.spawn",
];

pub const NAMES: [&str; 6] = [
    "lua_hot",
    "syscall_dense",
    "memcached_threads",
    "prefork_serve",
    "bash_jobs",
    "cold_start",
];

/// Guest sizes. [`FULL`] is what the benchmark measures; [`SMALL`] is
/// the same generators at a size the emulator and unit tests can afford.
pub struct Scale {
    pub lua_rounds: u32,
    pub dense_iters: u32,
    pub memcached_requests: u32,
    pub prefork_workers: u32,
    pub prefork_requests: u32,
    pub bash_jobs: u32,
    pub cold_passes: u32,
}

pub const FULL: Scale = Scale {
    lua_rounds: 10_000,
    dense_iters: 20_000,
    memcached_requests: 4096,
    prefork_workers: 8,
    prefork_requests: 256,
    bash_jobs: 4096,
    cold_passes: 16,
};

pub const SMALL: Scale = Scale {
    lua_rounds: 20,
    dense_iters: 50,
    memcached_requests: 8,
    prefork_workers: 2,
    prefork_requests: 4,
    bash_jobs: 4,
    cold_passes: 1,
};

/// What a correct run of one guest must report.
pub struct Expect {
    pub exit: i32,
    pub console: String,
    /// Tasks that ran to an end (main + forked children + threads).
    pub tasks: usize,
}

impl Expect {
    fn new(exit: i32, console: impl Into<String>, tasks: usize) -> Expect {
        Expect {
            exit,
            console: console.into(),
            tasks,
        }
    }

    fn check(&self, exit: Option<i32>, console: &str, tasks: usize) -> Result<(), String> {
        if exit != Some(self.exit) {
            return Err(format!("exit {exit:?}, expected {}", self.exit));
        }
        if console != self.console {
            return Err(format!(
                "console {} B differs from the expected {} B",
                console.len(),
                self.console.len()
            ));
        }
        if tasks != self.tasks {
            return Err(format!("{tasks} tasks ended, expected {}", self.tasks));
        }
        Ok(())
    }

    fn check_outcome(&self, out: &RunOutcome) -> Result<(), String> {
        self.check(out.exit_code(), &out.stdout(), out.ends.len())
    }
}

pub struct Guest {
    pub name: &'static str,
    /// The encoded module: a sample starts from these bytes.
    pub bytes: Vec<u8>,
    /// File staged in the guest's kernel before it runs.
    pub input: Option<(&'static str, Vec<u8>)>,
    pub expect: Expect,
}

impl Guest {
    /// Single-process, so `virt::EmuRunner` can run it too.
    fn emulatable(&self) -> bool {
        self.expect.tasks == 1
    }
}

pub struct Workload {
    pub name: &'static str,
    pub guests: Vec<Guest>,
    /// Indexes into `guests`, one per start of a sample, in run order.
    pub order: Vec<usize>,
    pub ops_per_sample: u64,
    /// Time spent in `apps::*_sim` / `ModuleBuilder` and in `encode`.
    pub build_us: f64,
    pub encode_us: f64,
}

/// Accumulates the build/encode split while guests are generated.
#[derive(Default)]
struct Gen {
    build_us: f64,
    encode_us: f64,
}

impl Gen {
    fn encoded(&mut self, build: impl FnOnce() -> Module) -> Vec<u8> {
        let t = Instant::now();
        let module = build();
        self.build_us += us_since(t);
        let t = Instant::now();
        let bytes = wasm::encode::encode(&module);
        self.encode_us += us_since(t);
        bytes
    }
}

/// Replaces the single occurrence of `needle` in an encoded module (a
/// string constant of its data section) by `with`, of the same length.
fn patch_unique(bytes: &mut [u8], needle: &[u8], with: &[u8]) -> Result<(), String> {
    assert_eq!(needle.len(), with.len());
    let hits: Vec<usize> = bytes
        .windows(needle.len())
        .enumerate()
        .filter(|(_, w)| *w == needle)
        .map(|(at, _)| at)
        .collect();
    match hits[..] {
        [at] => {
            bytes[at..at + with.len()].copy_from_slice(with);
            Ok(())
        }
        _ => Err(format!(
            "payload constant {:?} occurs {} times in the guest",
            String::from_utf8_lossy(needle),
            hits.len()
        )),
    }
}

/// A 64-opcode script: every opcode class (`byte & 7`) exactly eight
/// times in seeded order, seeded high bits. The fixed histogram keeps
/// the interpreted work identical across seeds; the first opcode is
/// never class 4, whose `brk` beat would otherwise fire once a round and
/// make `lua_hot` a syscall workload on one seed in eight.
fn lua_script(rng: &mut Rng) -> Vec<u8> {
    let mut classes: Vec<u8> = (0..LUA_SCRIPT_LEN as u8).map(|i| i & 7).collect();
    rng.shuffle(&mut classes);
    if classes[0] == 4 {
        let other = classes.iter().position(|c| *c != 4).expect("eight classes");
        classes.swap(0, other);
    }
    classes
        .into_iter()
        .map(|c| c | ((rng.below(32) as u8) << 3))
        .collect()
}

/// `apps::lua_sim`'s exit code, from its accumulator recurrence.
fn lua_exit(script: &[u8], rounds: u32) -> i32 {
    let mut acc = 0u64;
    for _ in 0..rounds.max(1) {
        for byte in script {
            acc = acc
                .wrapping_add(0x9e37_79b9 + (byte & 7) as u64)
                .wrapping_mul(31);
        }
    }
    (acc == 0) as i32
}

fn dense_payload(rng: &mut Rng) -> [u8; IO_BYTES] {
    let mut payload = [0u8; IO_BYTES];
    payload.copy_from_slice(&rng.letters(IO_BYTES));
    // A run that reads nothing back exits 0; keep the right answer apart.
    while guests::dense_exit_code(&payload) == 0 {
        payload[IO_BYTES - 1] = b'a' + (payload[IO_BYTES - 1] - b'a' + 1) % 26;
    }
    payload
}

impl Workload {
    /// Generates workload `name` from `seed` at `scale`.
    pub fn build(name: &str, seed: u64, scale: &Scale) -> Result<Workload, String> {
        let mut rng = Rng::new(seed);
        let mut gen = Gen::default();
        let mut order = vec![0];
        let (name, guests, ops) = match name {
            "lua_hot" => {
                let script = lua_script(&mut rng);
                let rounds = scale.lua_rounds;
                let guest = Guest {
                    name: "lua",
                    bytes: gen.encoded(|| apps::lua_sim(rounds).module),
                    expect: Expect::new(lua_exit(&script, rounds), "lua: done\n", 1),
                    input: Some((LUA_SCRIPT_PATH, script)),
                };
                (NAMES[0], vec![guest], rounds as u64)
            }
            "syscall_dense" => {
                let payload = dense_payload(&mut rng);
                let iters = scale.dense_iters;
                let guest = Guest {
                    name: "dense",
                    bytes: gen.encoded(|| guests::syscall_dense(iters, &payload)),
                    expect: Expect::new(guests::dense_exit_code(&payload), "", 1),
                    input: None,
                };
                (NAMES[1], vec![guest], 7 * iters as u64 + 1)
            }
            "memcached_threads" => {
                let requests = scale.memcached_requests;
                let mut bytes = gen.encoded(|| apps::memcached_sim(requests).module);
                let value = rng.letters(5);
                patch_unique(
                    &mut bytes,
                    b"set k 0 0 5 hello\0",
                    &[b"set k 0 0 5 ", &value[..], b"\0"].concat(),
                )?;
                let guest = Guest {
                    name: "memcached",
                    bytes,
                    expect: Expect::new(0, "", 2),
                    input: None,
                };
                (NAMES[2], vec![guest], requests as u64)
            }
            "prefork_serve" => {
                let (workers, requests) = (scale.prefork_workers, scale.prefork_requests);
                let mut bytes = gen.encoded(|| apps::prefork_server_sim(workers, requests).module);
                // Lowercase, so a request never reads as the `QUIT` command.
                let request = rng.letters(4);
                patch_unique(&mut bytes, b"ping\0", &[&request[..], b"\0"].concat())?;
                let guest = Guest {
                    name: "prefork",
                    bytes,
                    expect: Expect::new(0, "", workers as usize + 1),
                    input: None,
                };
                (NAMES[3], vec![guest], (workers * requests) as u64)
            }
            "bash_jobs" => {
                let jobs = scale.bash_jobs;
                let mut bytes = gen.encoded(|| apps::bash_sim(jobs).module);
                let word = rng.letters(5);
                patch_unique(
                    &mut bytes,
                    b"echo hello | wc -l\0",
                    &[b"echo ", &word[..], b" | wc -l\0"].concat(),
                )?;
                let guest = Guest {
                    name: "bash",
                    bytes,
                    expect: Expect::new(0, "$ ".repeat(jobs as usize), jobs as usize + 1),
                    input: None,
                };
                (NAMES[4], vec![guest], jobs as u64)
            }
            "cold_start" => {
                // No script file here: `lua_sim` falls back to its
                // built-in 64 zero opcodes.
                let mut tiny = |name, build: fn() -> Module, expect| Guest {
                    name,
                    bytes: gen.encoded(build),
                    input: None,
                    expect,
                };
                let guests = vec![
                    tiny(
                        "lua",
                        || apps::lua_sim(1).module,
                        Expect::new(lua_exit(&[0; LUA_SCRIPT_LEN], 1), "lua: done\n", 1),
                    ),
                    tiny("bash", || apps::bash_sim(1).module, Expect::new(0, "$ ", 2)),
                    tiny(
                        "bash_builtin",
                        || apps::bash_builtin_sim(1).module,
                        Expect::new(0, "$ ", 1),
                    ),
                    tiny(
                        "sqlite",
                        || apps::sqlite_sim(1).module,
                        Expect::new(0, "", 1),
                    ),
                    tiny(
                        "memcached",
                        || apps::memcached_sim(1).module,
                        Expect::new(0, "", 2),
                    ),
                    tiny(
                        "paho_mqtt",
                        || apps::paho_mqtt_sim(1).module,
                        Expect::new(0, "", 2),
                    ),
                    tiny(
                        "prefork",
                        || apps::prefork_server_sim(1, 1).module,
                        Expect::new(0, "", 2),
                    ),
                ];
                order.clear();
                for _ in 0..scale.cold_passes {
                    let mut pass: Vec<usize> = (0..guests.len()).collect();
                    rng.shuffle(&mut pass);
                    order.extend(pass);
                }
                let starts = order.len() as u64;
                (NAMES[5], guests, starts)
            }
            other => return Err(format!("unknown workload {other:?}; one of {NAMES:?}")),
        };
        Ok(Workload {
            name,
            guests,
            order,
            ops_per_sample: ops,
            build_us: gen.build_us,
            encode_us: gen.encode_us,
        })
    }

    /// One sample: every start of `order`, back to back. With `trace`,
    /// the sample and each layer call inside it are recorded as spans.
    /// `Err` carries the first check that failed; the remaining starts
    /// still run so a failed sample costs what a good one does.
    pub fn run_sample(&self, trace: Option<(&mut Spans, u32)>) -> Result<(), String> {
        let mut scope = trace.map(|(rec, sample)| rec.begin_sample(sample));
        let mut verdict = Ok(());
        for &g in &self.order {
            let guest = &self.guests[g];
            let result = start(guest, &mut scope);
            if verdict.is_ok() {
                verdict = result.map_err(|e| format!("{}/{}: {e}", self.name, guest.name));
            }
        }
        if let Some(scope) = scope {
            scope.end();
        }
        verdict
    }

    /// Runs every emulatable guest on `virt::EmuRunner` and holds it to
    /// the same expectation as the runner under test.
    pub fn crosscheck_on_emulator(&self) -> Result<(), String> {
        for guest in self.guests.iter().filter(|g| g.emulatable()) {
            let module = wasm::decode::decode(&guest.bytes).map_err(|e| format!("{e:?}"))?;
            let mut emu = EmuRunner::new(&module)?;
            if let Some((path, content)) = &guest.input {
                let kernel = emu.kernel();
                let tid = kernel.lock_ok().spawn_process();
                stage_file(&kernel, tid, path, content)?;
            }
            let out = emu.run(&[])?;
            guest
                .expect
                .check(
                    Some(out.exit),
                    &String::from_utf8_lossy(&out.console),
                    guest.expect.tasks,
                )
                .map_err(|e| format!("emulator disagrees on {}/{}: {e}", self.name, guest.name))?;
        }
        Ok(())
    }
}

/// Writes `content` to `path` through `tid`'s own syscalls.
pub fn stage_file(
    kernel: &KernelRef,
    tid: vkernel::Tid,
    path: &str,
    content: &[u8],
) -> Result<(), String> {
    let mut k = kernel.lock_ok();
    let sys = |e| format!("staging {path}: {e:?}");
    let fd = k
        .sys_openat(tid, AT_FDCWD, path, O_CREAT | O_RDWR | O_TRUNC, 0o644)
        .map_err(sys)?;
    k.sys_write(tid, fd, content).map_err(sys)?;
    k.sys_close(tid, fd).map_err(sys)?;
    Ok(())
}

/// One start: wasm bytes → `decode` → `WaliRunner::new` →
/// `register_program` → `spawn` → `run()` → outcome verified → runner
/// dropped, single worker, every toggle at its default.
pub fn start(guest: &Guest, scope: &mut Option<Scope<'_>>) -> Result<(), String> {
    let module = call(scope, "wasm.decode", || wasm::decode::decode(&guest.bytes))
        .map_err(|e| format!("decode: {e:?}"))?;
    let mut runner = call(scope, "wali.runner_new", || {
        let mut runner = WaliRunner::new(SafepointScheme::LoopHeaders);
        runner.set_workers(1);
        runner
    });
    call(scope, "wali.register_program", || {
        runner.register_program(GUEST_PATH, &module)
    })
    .map_err(|e| format!("register_program: {e}"))?;
    let tid = call(scope, "wali.spawn", || runner.spawn(GUEST_PATH, &[], &[]))
        .map_err(|e| format!("spawn: {e}"))?;
    if let Some((path, content)) = &guest.input {
        stage_file(&runner.kernel, tid, path, content)?;
    }
    let out = call(scope, "wali.run", || runner.run()).map_err(|e| format!("run: {e}"))?;
    let verdict = guest.expect.check_outcome(&out);
    call(scope, "wali.teardown", || {
        drop(out);
        drop(runner);
        drop(module);
    });
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_passes_its_own_checks_at_small_scale() {
        for name in NAMES {
            let w = Workload::build(name, 3, &SMALL).expect(name);
            w.run_sample(None).expect(name);
            w.crosscheck_on_emulator().expect(name);
            assert!(w.ops_per_sample > 0);
        }
    }

    #[test]
    fn a_wrong_expectation_fails_the_sample() {
        for name in NAMES {
            let mut w = Workload::build(name, 3, &SMALL).expect(name);
            w.guests[0].expect.exit += 1;
            let err = w.run_sample(None).expect_err("wrong exit code must fail");
            assert!(err.contains("exit"), "{err}");

            let mut w = Workload::build(name, 3, &SMALL).expect(name);
            w.guests[0].expect.console.push('!');
            let err = w.run_sample(None).expect_err("wrong console must fail");
            assert!(err.contains("console"), "{err}");

            let mut w = Workload::build(name, 3, &SMALL).expect(name);
            w.guests[0].expect.tasks += 1;
            let err = w.run_sample(None).expect_err("wrong task count must fail");
            assert!(err.contains("tasks"), "{err}");
        }
    }

    #[test]
    fn the_emulator_catches_a_wrong_expectation_too() {
        let mut w = Workload::build("syscall_dense", 3, &SMALL).expect("build");
        w.guests[0].expect.exit ^= 1;
        assert!(w.crosscheck_on_emulator().is_err());
    }

    #[test]
    fn seed_changes_inputs_but_not_their_size_or_opcode_histogram() {
        let a = Workload::build("lua_hot", 1, &SMALL).expect("build");
        let b = Workload::build("lua_hot", 2, &SMALL).expect("build");
        let again = Workload::build("lua_hot", 1, &SMALL).expect("build");
        let script = |w: &Workload| w.guests[0].input.as_ref().expect("script").1.clone();
        assert_eq!(script(&a), script(&again));
        assert_ne!(script(&a), script(&b));
        for w in [&a, &b] {
            let s = script(w);
            assert_eq!(s.len(), LUA_SCRIPT_LEN);
            assert_ne!(s[0] & 7, 4);
            for class in 0..8 {
                assert_eq!(s.iter().filter(|b| *b & 7 == class).count(), 8);
            }
        }
        for name in ["memcached_threads", "prefork_serve", "bash_jobs"] {
            let a = Workload::build(name, 1, &SMALL).expect(name);
            let b = Workload::build(name, 2, &SMALL).expect(name);
            assert_eq!(a.guests[0].bytes.len(), b.guests[0].bytes.len());
            assert_ne!(a.guests[0].bytes, b.guests[0].bytes, "{name}");
        }
        let a = Workload::build("cold_start", 1, &FULL).expect("build");
        let b = Workload::build("cold_start", 2, &FULL).expect("build");
        assert_eq!(a.order.len(), 112);
        assert_ne!(a.order, b.order);
    }

    #[test]
    fn patching_refuses_an_ambiguous_or_missing_constant() {
        let mut bytes = b"abcabc".to_vec();
        assert!(patch_unique(&mut bytes, b"abc", b"xyz").is_err());
        assert!(patch_unique(&mut bytes, b"q", b"r").is_err());
        patch_unique(&mut bytes, b"ca", b"CA").expect("unique");
        assert_eq!(bytes, b"abCAbc");
    }
}
