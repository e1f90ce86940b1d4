//! Start-up bench: what one start costs when the process has, and has
//! not, prepared the module before.
//!
//! `wali_bench`'s `cold_start` repeats seven guests, so after its first
//! pass every `register_program` finds the module's prepared image
//! (`wasm::prep::Prepared`) and the row is warm by design. The
//! `first_seen` rows here keep a true cold number in the trajectory:
//! each iteration gives the guest a fresh immediate — the initializer of
//! an immutable global nothing reads — so the module is structurally new
//! to the process, is validated, flattened and lowered from scratch, and
//! pushes the oldest image out of the table. The `seen` rows run the
//! same guests unchanged. An iteration is one guest; the seven
//! `cold_start` guests take turns.

use std::sync::atomic::{AtomicU64, Ordering};

use bench::harness;
use wali::runner::{TaskEnd, WaliRunner};
use wasm::module::{ConstExpr, Global};
use wasm::types::{GlobalType, ValType};
use wasm::{Module, SafepointScheme};

const PATH: &str = "/usr/bin/guest";

/// Initial bit pattern of the nonce global; found (once) in the encoded
/// module so the `start` rows can renew it without re-encoding.
const NONCE_MARK: u64 = 0x5eed_0000_c01d_57a7;

/// Source of fresh immediates, shared by every row so that no two
/// iterations of the process ever present the same module.
static NONCE: AtomicU64 = AtomicU64::new(NONCE_MARK + 1);

fn fresh() -> u64 {
    NONCE.fetch_add(1, Ordering::Relaxed)
}

struct Guest {
    module: Module,
    bytes: Vec<u8>,
    /// Offset of the nonce global's eight initializer bytes in `bytes`.
    nonce_at: usize,
}

impl Guest {
    fn new(app: apps::App) -> Guest {
        let mut module = app.module;
        module.globals.push(Global {
            ty: GlobalType {
                ty: ValType::F64,
                mutable: false,
            },
            init: ConstExpr::F64(NONCE_MARK),
        });
        let bytes = wasm::encode::encode(&module);
        let mark = NONCE_MARK.to_le_bytes();
        let hits: Vec<usize> = (0..bytes.len().saturating_sub(7))
            .filter(|&at| bytes[at..at + 8] == mark)
            .collect();
        assert_eq!(hits.len(), 1, "{}: nonce marker not unique", app.name);
        Guest {
            module: wasm::decode::decode(&bytes).expect("round trip"),
            bytes,
            nonce_at: hits[0],
        }
    }

    fn renew_module(&mut self) {
        let nonce = self.module.globals.last_mut().expect("nonce global");
        nonce.init = ConstExpr::F64(fresh());
    }

    fn renew_bytes(&mut self) {
        self.bytes[self.nonce_at..self.nonce_at + 8].copy_from_slice(&fresh().to_le_bytes());
    }
}

/// One start, `wali_bench`'s `cold_start` shape: bytes → decode → runner
/// → register → spawn → run → everything dropped.
fn start(bytes: &[u8]) {
    let module = wasm::decode::decode(bytes).expect("decode");
    let mut runner = WaliRunner::new(SafepointScheme::LoopHeaders);
    runner.set_workers(1);
    runner.register_program(PATH, &module).expect("register");
    runner.spawn(PATH, &[], &[]).expect("spawn");
    let out = runner.run().expect("run");
    assert!(matches!(out.main_exit, Some(TaskEnd::Exited(0))));
}

fn main() {
    let mut guests: Vec<Guest> = [
        apps::lua_sim(1),
        apps::bash_sim(1),
        apps::bash_builtin_sim(1),
        apps::sqlite_sim(1),
        apps::memcached_sim(1),
        apps::paho_mqtt_sim(1),
        apps::prefork_server_sim(1, 1),
    ]
    .into_iter()
    .map(Guest::new)
    .collect();
    let mut turn = 0;
    let mut next = move || {
        turn = (turn + 1) % 7;
        turn
    };

    let mut g = harness::group("startup");
    let mut runner = WaliRunner::new(SafepointScheme::LoopHeaders);
    g.bench_function("register/first_seen", |b| {
        b.iter(|| {
            let guest = &mut guests[next()];
            guest.renew_module();
            runner.register_program(PATH, &guest.module).expect("link")
        })
    });
    g.bench_function("register/seen", |b| {
        b.iter(|| {
            runner
                .register_program(PATH, &guests[next()].module)
                .expect("link")
        })
    });
    g.bench_function("kernel_new", |b| b.iter(vkernel::Kernel::new));
    g.bench_function("start/first_seen", |b| {
        b.iter(|| {
            let guest = &mut guests[next()];
            guest.renew_bytes();
            start(&guest.bytes)
        })
    });
    g.bench_function("start/seen", |b| b.iter(|| start(&guests[next()].bytes)));
    g.finish();
}
