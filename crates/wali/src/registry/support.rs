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

type Answer = Result<Vec<Value>, HostOutcome>;
type Method = fn(&mut Caller<'_, WaliContext>, &[Value]) -> Answer;

/// Every support method under its import name: the one list the
/// registration and the registry's coverage test read. Methods use the
/// typed convention (none is hot) and are plain `fn`s, so none captures
/// state: the import table is built once per process and shared by every
/// runner ([`crate::build_linker`]), and everything a run mutates belongs
/// in [`WaliContext`].
pub(crate) const METHODS: [(&str, Method); 7] = [
    ("get_argc", get_argc),
    ("get_argv_len", get_argv_len),
    ("copy_argv", copy_argv),
    ("get_envc", get_envc),
    ("get_env_len", get_env_len),
    ("copy_env", copy_env),
    ("proc_exit", proc_exit),
];

pub(crate) fn register(l: &mut Linker<WaliContext>) {
    for (name, f) in METHODS {
        l.func(WALI_MODULE, name, f);
    }
}

fn get_argc(caller: &mut Caller<'_, WaliContext>, _args: &[Value]) -> Answer {
    Ok(vec![Value::I32(caller.data.args.len() as i32)])
}

fn get_argv_len(caller: &mut Caller<'_, WaliContext>, args: &[Value]) -> Answer {
    let i = args.first().and_then(Value::as_i32).unwrap_or(-1);
    let len = caller
        .data
        .args
        .get(i as usize)
        .map(|s| s.len() as i32 + 1)
        .unwrap_or(-1);
    Ok(vec![Value::I32(len)])
}

fn copy_argv(caller: &mut Caller<'_, WaliContext>, args: &[Value]) -> Answer {
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
}

fn get_envc(caller: &mut Caller<'_, WaliContext>, _args: &[Value]) -> Answer {
    Ok(vec![Value::I32(caller.data.env.len() as i32)])
}

fn get_env_len(caller: &mut Caller<'_, WaliContext>, args: &[Value]) -> Answer {
    let i = args.first().and_then(Value::as_i32).unwrap_or(-1);
    let len = caller
        .data
        .env
        .get(i as usize)
        .map(|s| s.len() as i32 + 1)
        .unwrap_or(-1);
    Ok(vec![Value::I32(len)])
}

fn copy_env(caller: &mut Caller<'_, WaliContext>, args: &[Value]) -> Answer {
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
}

fn proc_exit(caller: &mut Caller<'_, WaliContext>, args: &[Value]) -> Answer {
    let code = args.first().and_then(Value::as_i32).unwrap_or(0);
    let tid = caller.data.tid;
    let _ = caller.data.lock_kernel().sys_exit_group(tid, code);
    caller.data.exited = Some(code);
    Err(caller.data.suspend(WaliSuspend::Exit { code }))
}
