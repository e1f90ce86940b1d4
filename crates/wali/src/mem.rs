//! Address-space translation between the Wasm sandbox and the kernel
//! (§3.2), and the one argument decoder of the syscall table.
//!
//! Raw byte buffers cross the boundary zero-copy via
//! [`wasm::mem::Memory::with_slice`]; structured arguments go through the
//! explicit WALI layouts in [`wali_abi::layout`]. Every access is
//! bounds-checked against the module's linear memory and surfaces as
//! `EFAULT`, matching what the kernel reports for bad user pointers.
//!
//! [`Decode`] turns the raw i64 slots of a call into the values of the
//! parameter types a table row names ([`wali_abi::spec::Param`]); the
//! registration decodes a row's parameters in order, so a handler is a
//! plain function of typed values and never sees a slot.

use wali_abi::layout::WaliSockaddr;
use wali_abi::spec::{InBuf, OutBuf, Path, Ptr, SockAddr};
use wali_abi::Errno;
use wasm::mem::Memory;

/// Extracts argument slot `i` as an i64 (WALI syscall imports are
/// all-i64; a slot the caller did not pass reads 0).
#[inline]
pub fn arg(args: &[u64], i: usize) -> i64 {
    args.get(i).copied().unwrap_or(0) as i64
}

/// Extracts argument slot `i` as an i32.
#[inline]
pub fn arg_i32(args: &[u64], i: usize) -> i32 {
    arg(args, i) as i32
}

/// A parameter type of the syscall table, decoded from the slots at
/// `i..i + SLOTS`.
pub trait Decode: wali_abi::spec::Param {
    /// What the handler takes.
    type Value<'m>;

    /// Decodes the parameter and hands it to `f`; a view lives as long
    /// as `f` runs. A failed decode is the call's errno.
    fn with<O>(
        mem: &Memory,
        args: &[u64],
        i: usize,
        f: impl for<'m> FnOnce(Self::Value<'m>) -> Result<O, Errno>,
    ) -> Result<O, Errno>;
}

/// Parameter types decoded to an owned value.
macro_rules! owned {
    ($($t:ty => $v:ty = |$mem:pat_param, $a:ident, $i:ident| $e:expr;)*) => {$(
        impl Decode for $t {
            type Value<'m> = $v;

            #[inline]
            fn with<O>(
                $mem: &Memory,
                $a: &[u64],
                $i: usize,
                f: impl for<'m> FnOnce($v) -> Result<O, Errno>,
            ) -> Result<O, Errno> {
                f($e)
            }
        }
    )*};
}

owned! {
    i32 => i32 = |_, a, i| arg_i32(a, i);
    u32 => u32 = |_, a, i| arg(a, i) as u32;
    i64 => i64 = |_, a, i| arg(a, i);
    u64 => u64 = |_, a, i| arg(a, i) as u64;
    usize => usize = |_, a, i| arg(a, i) as usize;
    Ptr => u32 = |_, a, i| arg(a, i) as u32;
    Path => String = |mem, a, i| read_cstr(mem, arg(a, i) as u32)?;
    SockAddr => WaliSockaddr = |mem, a, i| {
        let len = (arg(a, i + 1) as usize).clamp(2, 128);
        WaliSockaddr::read_from(&read_bytes(mem, arg(a, i) as u32, len)?)?
    };
}

impl Decode for InBuf {
    type Value<'m> = &'m [u8];

    #[inline]
    fn with<O>(
        mem: &Memory,
        a: &[u64],
        i: usize,
        f: impl for<'m> FnOnce(&'m [u8]) -> Result<O, Errno>,
    ) -> Result<O, Errno> {
        with_slice(mem, arg(a, i) as u32, arg(a, i + 1) as usize, f)?
    }
}

impl Decode for OutBuf {
    type Value<'m> = &'m mut [u8];

    #[inline]
    fn with<O>(
        mem: &Memory,
        a: &[u64],
        i: usize,
        f: impl for<'m> FnOnce(&'m mut [u8]) -> Result<O, Errno>,
    ) -> Result<O, Errno> {
        with_slice_mut(mem, arg(a, i) as u32, arg(a, i + 1) as usize, f)?
    }
}

/// A nullable pointer kind: `None`, and nothing read, when the wasm32
/// pointer in its first slot is 0.
impl<T: Decode> Decode for Option<T> {
    type Value<'m> = Option<T::Value<'m>>;

    #[inline]
    fn with<O>(
        mem: &Memory,
        a: &[u64],
        i: usize,
        f: impl for<'m> FnOnce(Option<T::Value<'m>>) -> Result<O, Errno>,
    ) -> Result<O, Errno> {
        match arg(a, i) as u32 {
            0 => f(None),
            _ => T::with(mem, a, i, |v| f(Some(v))),
        }
    }
}

/// Reads `len` bytes at `ptr` into a fresh buffer.
pub fn read_bytes(mem: &Memory, ptr: u32, len: usize) -> Result<Vec<u8>, Errno> {
    mem.read(ptr as u64, len).map_err(|_| Errno::Efault)
}

/// Writes `bytes` at `ptr`.
pub fn write_bytes(mem: &Memory, ptr: u32, bytes: &[u8]) -> Result<(), Errno> {
    mem.write(ptr as u64, bytes).map_err(|_| Errno::Efault)
}

/// Checks that `len` bytes at `ptr` are guest memory, for a call that
/// must not make what it cannot hand back (memory never shrinks, so
/// what is checked stays writable).
pub fn check_range(mem: &Memory, ptr: u32, len: u32) -> Result<(), Errno> {
    mem.check(ptr as u64, len as u64)
        .map(drop)
        .map_err(|_| Errno::Efault)
}

/// Writes a pair of descriptors (`pipe2`'s `fds`, `socketpair`'s `sv`)
/// into a range [`check_range`] passed.
pub fn write_fd_pair(mem: &Memory, ptr: u32, (a, b): (i32, i32)) -> Result<(), Errno> {
    write_u64(mem, ptr, a as u32 as u64 | (b as u32 as u64) << 32)
}

/// Reads a NUL-terminated UTF-8 string (paths, names).
pub fn read_cstr(mem: &Memory, ptr: u32) -> Result<String, Errno> {
    let bytes = mem.read_cstr(ptr as u64).map_err(|_| Errno::Efault)?;
    String::from_utf8(bytes).map_err(|_| Errno::Einval)
}

/// Iterates `[addr, addr+len)` as `(chunk_addr, chunk_len)` pieces that
/// never cross a 64 KiB store-page boundary.
///
/// The paged memory backing is zero-copy only for ranges inside one page;
/// bulk syscall paths (mmap population, shared-file writeback) walk their
/// region with this iterator so every `with_slice(_mut)` call stays on
/// the single-page fast path instead of staging through a scratch buffer.
pub fn page_chunks(addr: u32, len: u32) -> impl Iterator<Item = (u32, u32)> {
    let page = wasm::PAGE_SIZE as u64;
    let mut cur = addr as u64;
    let end = addr as u64 + len as u64;
    std::iter::from_fn(move || {
        if cur >= end {
            return None;
        }
        let page_end = (cur / page + 1) * page;
        let n = end.min(page_end) - cur;
        let at = cur;
        cur += n;
        Some((at as u32, n as u32))
    })
}

/// Zero-copy read view: runs `f` over the linear-memory byte range.
pub fn with_slice<R>(
    mem: &Memory,
    ptr: u32,
    len: usize,
    f: impl FnOnce(&[u8]) -> R,
) -> Result<R, Errno> {
    mem.with_slice(ptr as u64, len, f)
        .map_err(|_| Errno::Efault)
}

/// Zero-copy write view: runs `f` over the mutable byte range.
pub fn with_slice_mut<R>(
    mem: &Memory,
    ptr: u32,
    len: usize,
    f: impl FnOnce(&mut [u8]) -> R,
) -> Result<R, Errno> {
    mem.with_slice_mut(ptr as u64, len, f)
        .map_err(|_| Errno::Efault)
}

/// Reads a little-endian u32 at `ptr`.
pub fn read_u32(mem: &Memory, ptr: u32) -> Result<u32, Errno> {
    mem.load::<4>(ptr as u64)
        .map(u32::from_le_bytes)
        .map_err(|_| Errno::Efault)
}

/// Writes a little-endian u32 at `ptr`.
pub fn write_u32(mem: &Memory, ptr: u32, v: u32) -> Result<(), Errno> {
    mem.store::<4>(ptr as u64, v.to_le_bytes())
        .map_err(|_| Errno::Efault)
}

/// Writes a little-endian u64 at `ptr`.
pub fn write_u64(mem: &Memory, ptr: u32, v: u64) -> Result<(), Errno> {
    mem.store::<8>(ptr as u64, v.to_le_bytes())
        .map_err(|_| Errno::Efault)
}

/// Reads a little-endian u64 at `ptr`.
pub fn read_u64(mem: &Memory, ptr: u32) -> Result<u64, Errno> {
    mem.load::<8>(ptr as u64)
        .map(u64::from_le_bytes)
        .map_err(|_| Errno::Efault)
}

/// Reads a NUL-terminated array of wasm32 string pointers (argv/envp).
pub fn read_str_array(mem: &Memory, mut ptr: u32) -> Result<Vec<String>, Errno> {
    let mut out = Vec::new();
    if ptr == 0 {
        return Ok(out);
    }
    loop {
        let p = read_u32(mem, ptr)?;
        if p == 0 {
            return Ok(out);
        }
        out.push(read_cstr(mem, p)?);
        ptr = ptr.checked_add(4).ok_or(Errno::Efault)?;
        if out.len() > 4096 {
            return Err(Errno::E2big);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(1, Some(2))
    }

    #[test]
    fn cstr_and_bytes_round_trip() {
        let m = mem();
        write_bytes(&m, 64, b"hello\0").unwrap();
        assert_eq!(read_cstr(&m, 64).unwrap(), "hello");
        assert_eq!(read_bytes(&m, 64, 5).unwrap(), b"hello");
    }

    #[test]
    fn out_of_bounds_is_efault() {
        let m = mem();
        assert_eq!(read_bytes(&m, 65530, 100).unwrap_err(), Errno::Efault);
        assert_eq!(
            write_bytes(&m, u32::MAX - 2, b"abc").unwrap_err(),
            Errno::Efault
        );
        assert_eq!(read_u32(&m, 65534).unwrap_err(), Errno::Efault);
    }

    #[test]
    fn str_array_reads_argv_layout() {
        let m = mem();
        write_bytes(&m, 100, b"arg0\0").unwrap();
        write_bytes(&m, 110, b"arg1\0").unwrap();
        write_u32(&m, 200, 100).unwrap();
        write_u32(&m, 204, 110).unwrap();
        write_u32(&m, 208, 0).unwrap();
        assert_eq!(read_str_array(&m, 200).unwrap(), vec!["arg0", "arg1"]);
        assert_eq!(read_str_array(&m, 0).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn page_chunks_split_at_store_page_boundaries() {
        let page = wasm::PAGE_SIZE as u32;
        // Entirely inside one page: one chunk.
        assert_eq!(page_chunks(100, 200).collect::<Vec<_>>(), vec![(100, 200)]);
        // Straddling two pages: split at the boundary.
        assert_eq!(
            page_chunks(page - 10, 30).collect::<Vec<_>>(),
            vec![(page - 10, 10), (page, 20)]
        );
        // Page-aligned multi-page run.
        assert_eq!(
            page_chunks(page, 2 * page).collect::<Vec<_>>(),
            vec![(page, page), (2 * page, page)]
        );
        // Empty and end-of-space ranges are safe.
        assert_eq!(page_chunks(123, 0).count(), 0);
        assert_eq!(
            page_chunks(u32::MAX, 1).collect::<Vec<_>>(),
            vec![(u32::MAX, 1)]
        );
    }

    #[test]
    fn value_arg_extraction() {
        let (m, args) = (mem(), [-5i64 as u64, 0xffff_ffff, 1 << 40]);
        assert_eq!(arg(&args, 0), -5);
        assert_eq!(i32::with(&m, &args, 0, Ok), Ok(-5));
        assert_eq!(u32::with(&m, &args, 0, Ok), Ok(u32::MAX - 4));
        assert_eq!(u64::with(&m, &args, 0, Ok), Ok(-5i64 as u64));
        assert_eq!(Ptr::with(&m, &args, 1, Ok), Ok(0xffff_ffff));
        assert_eq!(Ptr::with(&m, &args, 7, Ok), Ok(0), "missing args read 0");
        // A nullable pointer is null by its wasm32 value.
        let nullable = |i| Option::<Ptr>::with(&m, &args, i, Ok);
        assert_eq!(nullable(1), Ok(Some(0xffff_ffff)));
        assert_eq!(nullable(2), Ok(None));
    }

    #[test]
    fn views_paths_and_addresses_are_checked_before_the_call() {
        let m = mem();
        write_bytes(&m, 64, b"/tmp\0").unwrap();
        let called = |r: Result<(), Errno>| r.err();
        let path = |p: u64| called(Path::with(&m, &[p], 0, |_| Ok(())));
        assert_eq!(path(64), None);
        assert_eq!(path(1 << 16), Some(Errno::Efault));
        write_bytes(&m, 96, &[0xff, 0]).unwrap();
        assert_eq!(path(96), Some(Errno::Einval));
        let view = |a: &[u64]| called(OutBuf::with(&m, a, 0, |_| Ok(())));
        assert_eq!(view(&[64, 16]), None);
        assert_eq!(view(&[65530, 100]), Some(Errno::Efault));
        assert_eq!(view(&[64, 1 << 40]), Some(Errno::Efault));
        let dest = |a: &[u64]| called(Option::<SockAddr>::with(&m, a, 0, |_| Ok(())));
        assert_eq!(dest(&[0, 16]), None, "null: nothing read");
        assert_eq!(dest(&[u32::MAX as u64, 16]), Some(Errno::Efault));
    }
}
