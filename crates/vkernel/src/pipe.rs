//! Anonymous pipes with Linux buffer semantics.

use std::collections::VecDeque;

/// Default pipe capacity (Linux: 16 pages).
pub const PIPE_BUF_SIZE: usize = 16 * 4096;

/// The largest write a pipe takes whole or not at all (pipe(7)): two
/// writers' messages of at most this many bytes never interleave.
pub const PIPE_BUF: usize = 4096;

/// One pipe's shared buffer state.
#[derive(Clone, Debug)]
pub struct Pipe {
    buf: VecDeque<u8>,
    capacity: usize,
    /// Number of open read ends.
    pub readers: u32,
    /// Number of open write ends.
    pub writers: u32,
}

impl Default for Pipe {
    fn default() -> Self {
        Self::new()
    }
}

/// Outcome of a pipe read/write attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipeIo {
    /// Bytes transferred.
    Xfer(usize),
    /// Nothing available / no space; caller blocks or gets EAGAIN.
    WouldBlock,
    /// Read: all writers closed and buffer drained (EOF).
    Eof,
    /// Write: all readers closed (EPIPE + SIGPIPE).
    Broken,
}

impl Pipe {
    /// Creates an empty pipe with one reader and one writer end.
    pub fn new() -> Pipe {
        Pipe {
            buf: VecDeque::new(),
            capacity: PIPE_BUF_SIZE,
            readers: 1,
            writers: 1,
        }
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Space left before writers block.
    pub fn space(&self) -> usize {
        self.capacity - self.buf.len()
    }

    /// Attempts to read up to `out.len()` bytes.
    pub fn read(&mut self, out: &mut [u8]) -> PipeIo {
        if self.buf.is_empty() {
            if self.writers == 0 {
                return PipeIo::Eof;
            }
            return PipeIo::WouldBlock;
        }
        let n = out.len().min(self.buf.len());
        // The ring's two runs, front first.
        let (front, back) = self.buf.as_slices();
        let head = n.min(front.len());
        out[..head].copy_from_slice(&front[..head]);
        out[head..n].copy_from_slice(&back[..n - head]);
        self.buf.drain(..n);
        PipeIo::Xfer(n)
    }

    /// Attempts to write `data`. At most [`PIPE_BUF`] bytes go in whole
    /// or wait for room; a longer write transfers what fits.
    pub fn write(&mut self, data: &[u8]) -> PipeIo {
        if self.readers == 0 {
            return PipeIo::Broken;
        }
        let space = self.space();
        let atomic = data.len() <= PIPE_BUF;
        if space == 0 || (atomic && space < data.len()) {
            return PipeIo::WouldBlock;
        }
        let n = data.len().min(space);
        self.buf.extend(&data[..n]);
        PipeIo::Xfer(n)
    }

    /// True if a reader would not block.
    pub fn readable(&self) -> bool {
        !self.buf.is_empty() || self.writers == 0
    }

    /// True if a writer would not block.
    pub fn writable(&self) -> bool {
        self.space() > 0 || self.readers == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let mut p = Pipe::new();
        assert_eq!(p.write(b"hello"), PipeIo::Xfer(5));
        let mut buf = [0u8; 16];
        assert_eq!(p.read(&mut buf), PipeIo::Xfer(5));
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(p.read(&mut buf), PipeIo::WouldBlock);
    }

    #[test]
    fn eof_when_writers_gone() {
        let mut p = Pipe::new();
        p.write(b"x").unwrap_xfer();
        p.writers = 0;
        let mut buf = [0u8; 4];
        assert_eq!(p.read(&mut buf), PipeIo::Xfer(1), "drain first");
        assert_eq!(p.read(&mut buf), PipeIo::Eof);
    }

    #[test]
    fn broken_when_readers_gone() {
        let mut p = Pipe::new();
        p.readers = 0;
        assert_eq!(p.write(b"x"), PipeIo::Broken);
    }

    #[test]
    fn capacity_backpressure() {
        let mut p = Pipe::new();
        let big = vec![7u8; PIPE_BUF_SIZE + 100];
        assert_eq!(p.write(&big), PipeIo::Xfer(PIPE_BUF_SIZE));
        assert_eq!(p.write(b"more"), PipeIo::WouldBlock);
        let mut buf = vec![0u8; 100];
        assert_eq!(p.read(&mut buf), PipeIo::Xfer(100));
        assert_eq!(p.write(b"more"), PipeIo::Xfer(4));
    }

    #[test]
    fn a_write_of_at_most_pipe_buf_is_all_or_nothing() {
        let mut p = Pipe::new();
        let fill = vec![1u8; PIPE_BUF_SIZE - 40];
        assert_eq!(p.write(&fill), PipeIo::Xfer(fill.len()));
        // 40 bytes free: a 100-byte message does not go in in part …
        assert_eq!(p.write(&[2u8; 100]), PipeIo::WouldBlock);
        assert_eq!(p.len(), fill.len(), "nothing was transferred");
        // … one that fits does, and so does the first once there is room.
        assert_eq!(p.write(&[3u8; 40]), PipeIo::Xfer(40));
        assert_eq!(p.write(&[2u8; 1]), PipeIo::WouldBlock);
        let mut sink = vec![0u8; 100];
        assert_eq!(p.read(&mut sink), PipeIo::Xfer(100));
        assert_eq!(p.write(&[2u8; 100]), PipeIo::Xfer(100));
        // The boundary: PIPE_BUF itself is atomic, one byte more is not.
        let mut p = Pipe::new();
        let fill = vec![1u8; PIPE_BUF_SIZE - PIPE_BUF + 1];
        p.write(&fill).unwrap_xfer();
        assert_eq!(p.write(&[4u8; PIPE_BUF]), PipeIo::WouldBlock);
        assert_eq!(p.write(&[4u8; PIPE_BUF + 1]), PipeIo::Xfer(PIPE_BUF - 1));
        // No reader left wins over no room.
        p.readers = 0;
        assert_eq!(p.write(&[4u8; 8]), PipeIo::Broken);
    }

    #[test]
    fn reads_cross_the_ring_seam_in_order() {
        let mut p = Pipe::new();
        let mut out = vec![0u8; PIPE_BUF_SIZE];
        // Walk the ring's start forward so later transfers wrap.
        let mut next = 0u8;
        for round in 0..40 {
            let chunk: Vec<u8> = (0..5000)
                .map(|_| {
                    next = next.wrapping_add(1);
                    next
                })
                .collect();
            assert_eq!(p.write(&chunk), PipeIo::Xfer(5000), "round {round}");
            let want = if round % 3 == 0 { 1234 } else { 5000 };
            let n = p.read(&mut out[..want]).unwrap_xfer();
            assert_eq!(n, want.min(p.len() + n));
            let first = out[0];
            assert!(out[..n]
                .iter()
                .enumerate()
                .all(|(i, b)| *b == first.wrapping_add(i as u8)));
        }
        let left = p.len();
        assert_eq!(p.read(&mut out), PipeIo::Xfer(left));
        assert_eq!(
            out[left - 1],
            next,
            "the last byte written is the last read"
        );
        assert!(p.is_empty());
    }

    impl PipeIo {
        fn unwrap_xfer(self) -> usize {
            match self {
                PipeIo::Xfer(n) => n,
                other => panic!("{other:?}"),
            }
        }
    }
}
