//! Cross-crate integration tests: the whole stack from application suite
//! through WALI, the kernel model, the WASI layer and the comparators.

use wali::guest::Sysno;
use wali::policy::{DenyAction, Policy};
use wali::runner::{TaskEnd, WaliRunner};
use wali_abi::Errno;
use wasm::SafepointScheme;

fn run_app(app: apps::App, scheme: SafepointScheme) -> wali::RunOutcome {
    let bytes = wasm::encode::encode(&app.module);
    let module = wasm::decode::decode(&bytes).expect("round trip");
    let mut runner = WaliRunner::new(scheme);
    runner
        .kernel
        .lock_ok()
        .vfs
        .write_file("/tmp/script.lua", b"return 42")
        .unwrap();
    runner.register_program("/usr/bin/app", &module).unwrap();
    runner.spawn("/usr/bin/app", &[], &[]).unwrap();
    runner.run().expect("run")
}

#[test]
fn entire_suite_runs_on_every_safepoint_scheme() {
    for scheme in SafepointScheme::ALL {
        // The every-instruction scheme is slow; use small scales.
        let suite = vec![
            apps::lua_sim(2),
            apps::bash_sim(2),
            apps::sqlite_sim(48),
            apps::memcached_sim(3),
            apps::paho_mqtt_sim(3),
        ];
        for app in suite {
            let name = app.name;
            let out = run_app(app, scheme);
            assert_eq!(
                out.main_exit,
                Some(TaskEnd::Exited(0)),
                "{name} under {scheme}"
            );
        }
    }
}

#[test]
fn syscall_profile_matches_table1_footprints() {
    // The traced footprint of each executable app must be consistent with
    // its declared catalog features (no undeclared feature usage).
    use wasi_layer::Feature;
    let out = run_app(apps::bash_sim(2), SafepointScheme::LoopHeaders);
    let cat = apps::catalog();
    let bash = cat.iter().find(|e| e.name == "bash").unwrap();
    assert!(out.trace.counts.contains_key(Sysno::fork));
    assert!(bash.required.contains(&Feature::Fork));
    assert!(out.trace.counts.contains_key(Sysno::rt_sigaction));
    assert!(bash.required.contains(&Feature::Signals));
}

#[test]
fn policy_layer_restricts_the_suite() {
    // gVisor-style restricted profile: no sockets for the lua app (fine),
    // kill memcached at its first socket call.
    let allow_fs = Policy::deny_list(["socket"], DenyAction::Errno(Errno::Eperm));

    let app = apps::lua_sim(2);
    let bytes = wasm::encode::encode(&app.module);
    let module = wasm::decode::decode(&bytes).unwrap();
    let mut runner = WaliRunner::new_default();
    runner
        .kernel
        .lock_ok()
        .vfs
        .write_file("/tmp/script.lua", b"x")
        .unwrap();
    runner.register_program("/usr/bin/lua", &module).unwrap();
    runner
        .spawn_with_policy("/usr/bin/lua", &[], &[], allow_fs)
        .unwrap();
    let out = runner.run().unwrap();
    assert_eq!(
        out.main_exit,
        Some(TaskEnd::Exited(0)),
        "lua needs no sockets"
    );
}

#[test]
fn emulator_and_fast_tier_agree_on_every_emulatable_app() {
    for (app, seed) in [
        (apps::lua_sim(2), true),
        (apps::bash_builtin_sim(600), false),
        (apps::sqlite_sim(64), false),
    ] {
        let name = app.name;
        let module = {
            let bytes = wasm::encode::encode(&app.module);
            wasm::decode::decode(&bytes).unwrap()
        };
        let fast = {
            let mut runner = WaliRunner::new_default();
            runner
                .kernel
                .lock_ok()
                .vfs
                .write_file("/tmp/script.lua", b"x")
                .unwrap();
            runner.register_program("/usr/bin/app", &module).unwrap();
            runner.spawn("/usr/bin/app", &[], &[]).unwrap();
            runner.run().unwrap()
        };
        let mut emu = virt::EmuRunner::new(&module).unwrap();
        if seed {
            emu.kernel()
                .lock_ok()
                .vfs
                .write_file("/tmp/script.lua", b"x")
                .unwrap();
        }
        let slow = emu.run(&[]).unwrap();
        assert_eq!(Some(slow.exit), fast.exit_code(), "{name}: tiers disagree");
    }
}

#[test]
fn container_workloads_share_nothing_across_instances() {
    let mut k = vkernel::Kernel::new();
    let image = virt::Image::typical();
    let a = virt::Container::start(&mut k, &image, "a");
    let b = virt::Container::start(&mut k, &image, "b");
    // Write inside container a's rootfs; b's view is unaffected.
    k.vfs.mkdir_p(&format!("{}/etc", a.rootfs)).unwrap();
    k.vfs
        .write_file(&format!("{}/etc/app.conf", a.rootfs), b"A")
        .unwrap();
    assert!(k
        .vfs
        .read_file(&format!("{}/etc/app.conf", b.rootfs))
        .is_err());
}

#[test]
fn wali_runs_what_wasi_cannot() {
    // The headline claim, end to end: a signals+fork workload runs on
    // WALI; the WASI feature surface rejects it by construction.
    use wasi_layer::Api;
    let cat = apps::catalog();
    let bash = cat.iter().find(|e| e.name == "bash").unwrap();
    assert!(Api::Wasi.supports(&bash.required).is_err());
    assert!(Api::Wali.supports(&bash.required).is_ok());
    let out = run_app(apps::bash_sim(2), SafepointScheme::LoopHeaders);
    assert_eq!(out.main_exit, Some(TaskEnd::Exited(0)));
}

#[test]
fn deterministic_replay_across_runs() {
    // The virtual kernel is deterministic: two identical runs produce the
    // same console bytes, exit code and syscall counts.
    let a = run_app(apps::sqlite_sim(64), SafepointScheme::LoopHeaders);
    let b = run_app(apps::sqlite_sim(64), SafepointScheme::LoopHeaders);
    assert_eq!(a.exit_code(), b.exit_code());
    assert_eq!(a.console, b.console);
    assert_eq!(a.trace.counts, b.trace.counts);
}
