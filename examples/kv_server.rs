//! A memcached-style threaded key-value server with loopback clients:
//! clone-based worker threads sharing linear memory, sockets, setsockopt.
//!
//! ```sh
//! cargo run --example kv_server
//! ```

use wali::guest::Sysno;
use wasm::SafepointScheme;

fn main() {
    let app = apps::memcached_sim(16);
    let bytes = wasm::encode::encode(&app.module);
    let module = wasm::decode::decode(&bytes).expect("valid");

    let mut runner = wali::WaliRunner::new(SafepointScheme::LoopHeaders);
    runner
        .register_program("/usr/bin/memcached", &module)
        .expect("register");
    runner.spawn("/usr/bin/memcached", &[], &[]).expect("spawn");
    let out = runner.run().expect("run");

    println!("exit: {:?} (0 = all requests served)", out.main_exit);
    println!(
        "server: clone={} accept={} | clients: connect={} sendto/write={}",
        out.trace.counts.of(Sysno::clone),
        out.trace.counts.of(Sysno::accept),
        out.trace.counts.of(Sysno::connect),
        out.trace.counts.of(Sysno::write),
    );
    println!(
        "peak linear memory: {} KiB",
        out.peak_memory_pages as usize * 64
    );
}
