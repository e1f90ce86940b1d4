//! Address-space translation between the Wasm sandbox and the kernel
//! (§3.2).
//!
//! Raw byte buffers cross the boundary zero-copy via
//! [`wasm::mem::Memory::with_slice`]; structured arguments go through the
//! explicit WALI layouts in [`wali_abi::layout`]. Every access is
//! bounds-checked against the module's linear memory and surfaces as
//! `EFAULT`, matching what the kernel reports for bad user pointers.

use wali_abi::Errno;
use wasm::mem::Memory;

/// Extracts argument slot `i` as an i64 (WALI syscall imports are
/// all-i64; a slot the caller did not pass reads 0).
#[inline]
pub fn arg(args: &[u64], i: usize) -> i64 {
    args.get(i).copied().unwrap_or(0) as i64
}

/// Extracts argument slot `i` as a wasm32 pointer.
#[inline]
pub fn arg_ptr(args: &[u64], i: usize) -> u32 {
    arg(args, i) as u32
}

/// Extracts argument slot `i` as an i32.
#[inline]
pub fn arg_i32(args: &[u64], i: usize) -> i32 {
    arg(args, i) as i32
}

/// Reads `len` bytes at `ptr` into a fresh buffer.
pub fn read_bytes(mem: &Memory, ptr: u32, len: usize) -> Result<Vec<u8>, Errno> {
    mem.read(ptr as u64, len).map_err(|_| Errno::Efault)
}

/// Writes `bytes` at `ptr`.
pub fn write_bytes(mem: &Memory, ptr: u32, bytes: &[u8]) -> Result<(), Errno> {
    mem.write(ptr as u64, bytes).map_err(|_| Errno::Efault)
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
        let args = [-5i64 as u64, 0xffff_ffff];
        assert_eq!(arg(&args, 0), -5);
        assert_eq!(arg_i32(&args, 0), -5);
        assert_eq!(arg_ptr(&args, 1), 0xffff_ffff);
        assert_eq!(arg(&args, 7), 0, "missing args default to 0");
    }
}
