//! `wali_ring_enter`: draining batched-syscall rings in one crossing.
//!
//! The guest lays out an SQ/CQ pair in its own linear memory
//! ([`wali_abi::ring`]) and describes many operations before paying for
//! a single host call. Synchronous-completable SQEs — descriptor I/O
//! ([`crate::fastpath`]) plus the vectored family riding on
//! [`crate::registry::fs::iov_rw`] / [`crate::registry::sock::msg_rw`]
//! — complete inline and post their CQEs immediately. An SQE that would
//! block is moved to the context's in-flight list
//! (`WaliContext::ring_pending`); the whole `ring_enter` then parks on
//! the ordinary blocked-retry path, and every retry re-attempts the
//! in-flight operations, posting CQEs as their wakeups land. One
//! crossing thus overlaps many in-flight I/Os without any new threads.
//!
//! # Idempotence across retries
//!
//! The host advances `sq_head` in guest memory *at consume time*: a
//! retried `ring_enter` sees `sq_head == sq_tail` and never re-reads an
//! SQE, so consumed operations execute exactly once. The return value —
//! `cq_tail − cq_head`, the completions available for reaping — is a
//! pure function of ring state and therefore also retry-idempotent.
//!
//! # Why retries re-attempt *every* in-flight SQE
//!
//! Waking a parked task unsubscribes it from **all** its channels
//! ([`vkernel::wait`]), so after any wakeup the other pending
//! operations' subscriptions are gone; each must be re-attempted (and
//! thereby re-subscribed) or its wakeup could be missed. The kernel's
//! fired-channel record ([`vkernel::Kernel::take_fired`]) is therefore
//! used for *ordering*, not filtering: operations whose channel
//! actually fired are re-attempted first, so CQE order reflects wakeup
//! order.

use vkernel::fd::FileKind;
use vkernel::{Block, Channel, MutexExt, SysError};
use wali_abi::ring::{op, WaliCqe, WaliRingHdr, WaliSqe};
use wali_abi::Errno;
use wasm::host::{Caller, Linker};

use crate::context::WaliContext;
use crate::fastpath;
use crate::mem::{arg, arg_ptr, read_bytes, with_slice, with_slice_mut, write_bytes, write_u32};
use crate::registry::{flat, sys};

type C<'a, 'b> = &'a mut Caller<'b, WaliContext>;
type R = Result<i64, SysError>;

/// Registers the batched-syscall entry point. Not part of the WALI
/// specification table — an extension import, name-bound like the
/// support methods (retries resolve it by name, not by spec index).
pub(crate) fn register(l: &mut Linker<WaliContext>) {
    sys!(l, "wali_ring_enter", |c: C, a: &[u64]| -> R {
        ring_enter(c, a)
    });
}

/// SQE opcodes that wait for output space rather than input data.
fn is_write_op(opcode: u8) -> bool {
    matches!(
        opcode,
        op::WRITE | op::PWRITE | op::WRITEV | op::PWRITEV | op::SENDMSG
    )
}

/// Maps an in-flight SQE's fd onto the wait channel its blocked kernel
/// operation subscribed to, for fired-first retry ordering. `None` for
/// shapes whose channel can't be recovered from the fd alone (they just
/// keep submission order).
fn fd_channel(ctx: &WaliContext, fd: i32, write: bool) -> Option<Channel> {
    // Looked at under the table lock: no reference to the description
    // is taken, so none can outlive a `close` (see `fastpath`).
    let table = ctx.fdtable.lock_ok();
    let file = table.get(fd).ok()?.file.lock_ok();
    match &file.kind {
        FileKind::PipeRead(pipe) if !write => Some(Channel::PipeReadable(pipe.id)),
        FileKind::PipeWrite(pipe) if write => Some(Channel::PipeWritable(pipe.id)),
        FileKind::Socket(sock) if write => Some(Channel::SockSpace(sock.id)),
        FileKind::Socket(sock) => Some(Channel::SockReadable(sock.id)),
        _ => None,
    }
}

/// Attempts one SQE. `Ok(n)` / `Err(Err(e))` are completions (the CQE
/// carries `n` or the negative errno); `Err(Block)` leaves the
/// operation in flight with its wakeup subscription armed.
///
/// `TIMEOUT` SQEs reach here with `off` already converted to an
/// absolute virtual deadline (done once at consume time, so retries
/// don't restart the countdown).
fn attempt(c: C, sqe: &WaliSqe) -> R {
    let fd = sqe.fd;
    let mem = &*c.instance.memory;
    match sqe.opcode {
        op::NOP => Ok(0),
        op::READ => flat(with_slice_mut(mem, sqe.addr, sqe.len as usize, |buf| {
            fastpath::read(c, fd, buf)
        })),
        op::WRITE => flat(with_slice(mem, sqe.addr, sqe.len as usize, |buf| {
            fastpath::write(c, fd, buf)
        })),
        op::PREAD => flat(with_slice_mut(mem, sqe.addr, sqe.len as usize, |buf| {
            fastpath::pread(c, fd, buf, sqe.off)
        })),
        op::PWRITE => flat(with_slice(mem, sqe.addr, sqe.len as usize, |buf| {
            fastpath::pwrite(c, fd, buf, sqe.off)
        })),
        op::READV => crate::registry::fs::iov_rw(c, fd, sqe.addr, sqe.len as usize, false, None),
        op::WRITEV => crate::registry::fs::iov_rw(c, fd, sqe.addr, sqe.len as usize, true, None),
        op::PREADV => {
            crate::registry::fs::iov_rw(c, fd, sqe.addr, sqe.len as usize, false, Some(sqe.off))
        }
        op::PWRITEV => {
            crate::registry::fs::iov_rw(c, fd, sqe.addr, sqe.len as usize, true, Some(sqe.off))
        }
        op::SENDMSG => crate::registry::sock::msg_rw(c, fd, sqe.addr, sqe.off as i32, true),
        op::TIMEOUT => {
            let now = c.data.with_kernel(|kk| kk.clock.monotonic_ns());
            if now >= sqe.off {
                Err(Errno::Etime.into())
            } else {
                Err(vkernel::block_until(sqe.off))
            }
        }
        _ => Err(Errno::Einval.into()),
    }
}

/// `wali_ring_enter(ring_ptr, to_submit, min_complete, flags)`.
///
/// Consumes up to `to_submit` SQEs (bounded by what's submitted and by
/// free CQ slots net of in-flight operations, so completions can never
/// overflow), attempts each, posts CQEs for everything that finished,
/// and returns the number of CQEs available for reaping. Blocks — on
/// the ordinary retry path, with the earliest pending deadline — while
/// fewer than `min_complete` completions are available and operations
/// remain in flight. Returns `-ENOSYS` when rings are toggled off
/// (`WALI_NO_RING=1`), directing guests to the synchronous per-op ABI.
fn ring_enter(c: C, a: &[u64]) -> R {
    if !c.data.ring {
        return Err(Errno::Enosys.into());
    }
    let ring_ptr = arg_ptr(a, 0);
    let to_submit = arg(a, 1) as u32;
    let min_complete = arg(a, 2) as u32;
    let mem = &*c.instance.memory;
    let raw = read_bytes(mem, ring_ptr, WaliRingHdr::SIZE).map_err(SysError::Err)?;
    let mut hdr = WaliRingHdr::read_from(&raw).map_err(SysError::Err)?;
    hdr.validate().map_err(SysError::Err)?;

    let tid = c.data.tid;
    let mut pending = std::mem::take(&mut c.data.ring_pending);
    if !pending.is_empty() {
        // Fired-first retry ordering: completions for operations whose
        // channel actually fired land before speculative re-attempts.
        let fired = c.data.with_kernel(|kk| kk.take_fired(tid));
        if !fired.is_empty() && pending.len() > 1 {
            let ctx: &WaliContext = c.data;
            pending.sort_by_key(|sqe| {
                fd_channel(ctx, sqe.fd, is_write_op(sqe.opcode))
                    .and_then(|ch| fired.iter().position(|f| *f == ch))
                    .unwrap_or(usize::MAX)
            });
        }
    }

    let mut acc = Settled::default();
    for sqe in pending {
        let r = attempt(c, &sqe);
        acc.settle(sqe, r);
    }

    // Consume new SQEs, at most as many as the CQ can still absorb on
    // top of everything already in flight (`validate` guarantees
    // `cq_entries ≥ sq_entries`, so a fresh ring can always drain).
    let submitted = hdr.sq_tail.wrapping_sub(hdr.sq_head);
    let cq_free = hdr.cq_entries - hdr.cq_tail.wrapping_sub(hdr.cq_head);
    let budget = cq_free.saturating_sub((acc.completions.len() + acc.still.len()) as u32);
    let take = to_submit.min(submitted).min(budget);
    let now = c.data.with_kernel(|kk| kk.clock.monotonic_ns());
    for _ in 0..take {
        let slot = ring_ptr.wrapping_add(hdr.sqe_offset(hdr.sq_head));
        let raw = read_bytes(mem, slot, WaliSqe::SIZE).map_err(SysError::Err)?;
        let mut sqe = WaliSqe::read_from(&raw).map_err(SysError::Err)?;
        // Consume before attempting: a retry must never see this SQE.
        hdr.sq_head = hdr.sq_head.wrapping_add(1);
        write_u32(mem, ring_ptr.wrapping_add(8), hdr.sq_head).map_err(SysError::Err)?;
        if sqe.opcode == op::TIMEOUT {
            // Anchor the countdown once; retries compare against this.
            sqe.off = now.saturating_add(sqe.off);
        }
        let r = attempt(c, &sqe);
        acc.settle(sqe, r);
    }

    for cqe in acc.completions {
        let slot = ring_ptr.wrapping_add(hdr.cqe_offset(hdr.cq_tail));
        let mut buf = [0u8; WaliCqe::SIZE];
        cqe.write_to(&mut buf).map_err(SysError::Err)?;
        write_bytes(mem, slot, &buf).map_err(SysError::Err)?;
        hdr.cq_tail = hdr.cq_tail.wrapping_add(1);
    }
    // Publish only the host-owned indexes; `sq_tail`/`cq_head` belong
    // to the guest side of the SPSC protocol.
    write_u32(mem, ring_ptr.wrapping_add(20), hdr.cq_tail).map_err(SysError::Err)?;

    c.data.ring_pending = acc.still;
    let available = hdr.cq_tail.wrapping_sub(hdr.cq_head);
    if available >= min_complete || c.data.ring_pending.is_empty() {
        Ok(available as i64)
    } else {
        // Arm fired-channel recording for this park only: untracked
        // tasks pay nothing on the wake path, and a wake racing in
        // before the arm just yields an empty record — submission-order
        // retry, which is always correct.
        c.data.with_kernel(|kk| kk.track_fired(tid));
        Err(SysError::Block(Block {
            deadline: acc.next_deadline,
        }))
    }
}

/// Accumulates attempt outcomes: finished operations become CQEs,
/// blocked ones stay in flight (tracking the earliest wake deadline).
#[derive(Default)]
struct Settled {
    completions: Vec<WaliCqe>,
    still: Vec<WaliSqe>,
    next_deadline: Option<u64>,
}

impl Settled {
    fn settle(&mut self, sqe: WaliSqe, r: R) {
        match r {
            Ok(n) => self.completions.push(WaliCqe {
                user_data: sqe.user_data,
                res: n,
            }),
            Err(SysError::Err(e)) => self.completions.push(WaliCqe {
                user_data: sqe.user_data,
                res: e.as_ret(),
            }),
            Err(SysError::Block(Block { deadline })) => {
                if let Some(d) = deadline {
                    self.next_deadline = Some(self.next_deadline.map_or(d, |cur| cur.min(d)));
                }
                self.still.push(sqe);
            }
        }
    }
}
