//! External-parameter support methods (§3.4).
//!
//! Command-line arguments and environment variables are owned by the
//! engine and copied into the sandbox on demand: the standard library
//! sizes its vectors with `get_argc`/`get_argv_len` and then copies each
//! entry with `copy_argv`, so any parsing overflow stays inside the
//! sandbox. `proc_exit` is the libc-level exit hook.

use wasm::host::{Caller, HostOutcome, Linker};
use wasm::interp::Value;

use crate::context::WaliContext;
use crate::registry::WaliSuspend;
use crate::WALI_MODULE;

/// Compile-time proof that a method captures nothing. The import table
/// is built once per process and shared by every runner
/// ([`crate::build_linker`]), so a method holding state would leak it
/// from one run into another; everything a run mutates belongs in
/// [`WaliContext`].
fn stateless<F>(f: F) -> F {
    const {
        assert!(
            std::mem::size_of::<F>() == 0,
            "support methods capture nothing"
        )
    };
    f
}

/// Registers one support method (typed convention; none is hot).
fn method(
    l: &mut Linker<WaliContext>,
    name: &str,
    f: impl Fn(&mut Caller<'_, WaliContext>, &[Value]) -> Result<Vec<Value>, HostOutcome>
        + Send
        + Sync
        + 'static,
) {
    l.func(WALI_MODULE, name, stateless(f));
}

pub(crate) fn register(l: &mut Linker<WaliContext>) {
    method(l, "get_argc", |caller, _args| {
        Ok(vec![Value::I32(caller.data.args.len() as i32)])
    });

    method(l, "get_argv_len", |caller, args| {
        let i = args.first().and_then(Value::as_i32).unwrap_or(-1);
        let len = caller
            .data
            .args
            .get(i as usize)
            .map(|s| s.len() as i32 + 1)
            .unwrap_or(-1);
        Ok(vec![Value::I32(len)])
    });

    method(l, "copy_argv", |caller, args| {
        let buf = args.first().and_then(Value::as_i32).unwrap_or(0) as u32;
        let i = args.get(1).and_then(Value::as_i32).unwrap_or(-1);
        let Some(s) = caller.data.args.get(i as usize).cloned() else {
            return Ok(vec![Value::I32(-1)]);
        };
        let mut bytes = s.into_bytes();
        bytes.push(0);
        match crate::mem::write_bytes(&caller.instance.memory, buf, &bytes) {
            Ok(()) => Ok(vec![Value::I32(bytes.len() as i32)]),
            Err(e) => Ok(vec![Value::I32(e.as_ret() as i32)]),
        }
    });

    method(l, "get_envc", |caller, _args| {
        Ok(vec![Value::I32(caller.data.env.len() as i32)])
    });

    method(l, "get_env_len", |caller, args| {
        let i = args.first().and_then(Value::as_i32).unwrap_or(-1);
        let len = caller
            .data
            .env
            .get(i as usize)
            .map(|s| s.len() as i32 + 1)
            .unwrap_or(-1);
        Ok(vec![Value::I32(len)])
    });

    method(l, "copy_env", |caller, args| {
        let buf = args.first().and_then(Value::as_i32).unwrap_or(0) as u32;
        let i = args.get(1).and_then(Value::as_i32).unwrap_or(-1);
        let Some(s) = caller.data.env.get(i as usize).cloned() else {
            return Ok(vec![Value::I32(-1)]);
        };
        let mut bytes = s.into_bytes();
        bytes.push(0);
        match crate::mem::write_bytes(&caller.instance.memory, buf, &bytes) {
            Ok(()) => Ok(vec![Value::I32(bytes.len() as i32)]),
            Err(e) => Ok(vec![Value::I32(e.as_ret() as i32)]),
        }
    });

    method(l, "proc_exit", |caller, args| {
        let code = args.first().and_then(Value::as_i32).unwrap_or(0);
        let tid = caller.data.tid;
        let _ = caller.data.lock_kernel().sys_exit_group(tid, code);
        caller.data.exited = Some(code);
        Err(caller.data.suspend(WaliSuspend::Exit { code }))
    });
}
