//! Per-connection state for the event-loop front-end: a nonblocking
//! socket, a compacting [`FrameBuf`] for request reassembly, and a
//! scatter-gather write queue flushed on writable readiness.
//!
//! A [`Conn`] is deliberately dumb — it owns no protocol logic beyond
//! framing and no knowledge of shards or tokens. The event loop in
//! `server.rs` drives it: on readable, [`Conn::fill`] then drain
//! [`Conn::next_request`]; replies go in via [`Conn::queue_write`] and
//! out via [`Conn::flush`], which uses `write_vectored` so a backlog of
//! small reply frames leaves in one syscall. When [`Conn::flush`]
//! can't finish (kernel send buffer full), the loop arms writable
//! interest and retries on the next `EPOLLOUT`.
//!
//! Memory discipline: the read buffer starts at [`READ_BUF`] bytes and
//! inbound frames are capped at the server's per-instance request
//! ceiling ([`crate::protocol::max_request_frame`] for its block size;
//! [`crate::protocol::MAX_REQUEST_FRAME`] for metadata-only), so an
//! idle connection costs a few hundred bytes of queue bookkeeping plus
//! one small buffer — not a thread stack. After the write queue drains
//! the read window is shrunk back via [`FrameBuf::reclaim`].

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::protocol::{FrameBuf, ProtoError, Request};

/// Initial (and reclaimed-to) read buffer size per connection. Requests
/// are at most 23 wire bytes, so 4 KiB holds ~178 pipelined requests —
/// plenty for a drain quantum — while keeping 10k idle connections
/// under 64 MiB of read windows.
pub const READ_BUF: usize = 4096;

/// How many `read(2)` calls one readable event may issue before the
/// connection yields the IO thread. Level-triggered epoll re-reports
/// the fd if bytes remain, so this bounds per-connection latency
/// monopoly without losing data.
const READ_ROUNDS: usize = 8;

/// Cap on iovecs per `write_vectored` call (kernel `UIO_MAXIOV` is
/// 1024; staying well under avoids an allocation-size cliff).
const MAX_IOVECS: usize = 64;

/// What a [`Conn::fill`] pass observed on the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOutcome {
    /// Read `0+` bytes and hit `WouldBlock` (or the round cap); the
    /// socket stays open.
    Open(usize),
    /// The peer closed its write half after `0+` bytes; drain buffered
    /// requests, flush replies, then close.
    Eof(usize),
}

/// One multiplexed connection: nonblocking stream + reassembly buffer +
/// pending-reply queue.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    inbuf: FrameBuf,
    /// Post-flush read-window floor: [`READ_BUF`] for metadata-sized
    /// frame caps, larger for payload-capable connections so the
    /// window is not re-zeroed and re-grown on every data burst.
    reclaim_floor: usize,
    outq: VecDeque<Vec<u8>>,
    /// Bytes of `outq.front()` already written to the kernel.
    head: usize,
    /// Total unsent bytes across the queue (including the partial front).
    out_bytes: usize,
    /// Last instant data arrived — the idle sweep's clock.
    pub last_data: Instant,
    /// Peer closed its write half; close once `outq` drains.
    pub closing: bool,
}

impl Conn {
    /// Wraps an accepted stream: switches it to nonblocking and
    /// disables Nagle (replies are latency-sensitive and batched by us,
    /// not the kernel). `max_frame` caps inbound frames: the server
    /// passes [`crate::protocol::max_request_frame`] for its block size,
    /// so a metadata-only deployment still rejects payload-sized frames
    /// larger than one data request could legitimately be.
    pub fn new(stream: TcpStream, max_frame: usize) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            inbuf: FrameBuf::with_capacity(READ_BUF).with_max_frame(max_frame),
            reclaim_floor: READ_BUF.max((max_frame + 4).min(16 * READ_BUF)),
            outq: VecDeque::new(),
            head: 0,
            out_bytes: 0,
            last_data: Instant::now(),
            closing: false,
        })
    }

    /// The underlying stream (for fd registration and socket options).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Reads until `WouldBlock`, EOF, or the per-event round cap.
    /// Advances the idle clock if any bytes arrived.
    pub fn fill(&mut self) -> io::Result<FillOutcome> {
        let mut total = 0usize;
        for _ in 0..READ_ROUNDS {
            match self.inbuf.read_from(&mut self.stream) {
                Ok(0) => {
                    if total > 0 {
                        self.last_data = Instant::now();
                    }
                    return Ok(FillOutcome::Eof(total));
                }
                Ok(n) => total += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if total > 0 {
            self.last_data = Instant::now();
        }
        Ok(FillOutcome::Open(total))
    }

    /// Decodes the next complete request, if one is buffered.
    pub fn next_request(&mut self) -> Result<Option<Request>, ProtoError> {
        self.inbuf.next_request()
    }

    /// Queues a reply frame for delivery. Empty frames are dropped.
    pub fn queue_write(&mut self, frame: Vec<u8>) {
        if frame.is_empty() {
            return;
        }
        self.out_bytes += frame.len();
        self.outq.push_back(frame);
    }

    /// Pushes queued frames to the kernel with `write_vectored`,
    /// returning `true` once the queue is empty. `false` means the
    /// send buffer filled mid-flush: arm writable interest and call
    /// again on `EPOLLOUT`.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.out_bytes > 0 {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.outq.len().min(MAX_IOVECS));
            for (i, frame) in self.outq.iter().take(MAX_IOVECS).enumerate() {
                let from = if i == 0 { self.head } else { 0 };
                slices.push(IoSlice::new(&frame[from..]));
            }
            let n = match self.stream.write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.advance(n);
        }
        // Nothing pending: shrink an over-grown read window back to the
        // idle footprint.
        self.inbuf.reclaim(self.reclaim_floor);
        Ok(true)
    }

    /// Accounts `n` bytes written: pops fully-sent frames, tracks the
    /// partial front.
    fn advance(&mut self, mut n: usize) {
        self.out_bytes -= n;
        while n > 0 {
            let front_left = self.outq.front().map(|f| f.len() - self.head).unwrap_or(0);
            if n >= front_left {
                self.outq.pop_front();
                self.head = 0;
                n -= front_left;
            } else {
                self.head += n;
                n = 0;
            }
        }
    }

    /// `true` while reply bytes are queued (writable interest needed).
    pub fn wants_write(&self) -> bool {
        self.out_bytes > 0
    }

    /// Unsent reply bytes currently queued.
    pub fn pending_write_bytes(&self) -> usize {
        self.out_bytes
    }

    /// Approximate heap footprint: read window + queued replies. Feeds
    /// the per-IO-thread `buffer_bytes` gauge.
    pub fn buffer_bytes(&self) -> usize {
        self.inbuf.capacity() + self.out_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poller::set_send_buffer;
    use crate::protocol::encode_request;
    use crate::protocol::MAX_REQUEST_FRAME;
    use std::io::Read;
    use std::net::TcpListener;
    use std::os::fd::AsRawFd;

    /// Scatter-gather under a tiny `SO_SNDBUF`: a reply backlog far
    /// larger than the kernel buffer must flush partially, report
    /// "not done", and complete over repeated EPOLLOUT-style retries —
    /// delivering byte-identical content.
    #[test]
    fn partial_writes_scatter_gather_to_completion() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        set_send_buffer(accepted.as_raw_fd(), 4096).unwrap();
        let mut conn = Conn::new(accepted, MAX_REQUEST_FRAME).unwrap();

        // ~1.5 MiB across many small frames: guaranteed to overrun a
        // 4 KiB send buffer many times over.
        let mut expect = Vec::new();
        for i in 0..6_000u32 {
            let frame: Vec<u8> = (0..255u8).map(|b| b ^ (i as u8)).collect();
            expect.extend_from_slice(&frame);
            conn.queue_write(frame);
        }
        let queued = conn.pending_write_bytes();
        assert_eq!(queued, expect.len());

        // First flush against a non-reading peer must stall partway.
        assert!(!conn.flush().unwrap(), "tiny SO_SNDBUF cannot take it all");
        assert!(conn.wants_write());
        assert!(conn.pending_write_bytes() < queued, "some bytes must move");

        // A reader thread consumes; we keep re-flushing as EPOLLOUT
        // would drive us, until the queue drains.
        let want = expect.len();
        let reader = std::thread::spawn(move || {
            let mut peer = peer;
            let mut got = Vec::with_capacity(want);
            let mut buf = [0u8; 8192];
            while got.len() < want {
                let n = peer.read(&mut buf).unwrap();
                assert!(n > 0, "sender hung up early at {} bytes", got.len());
                got.extend_from_slice(&buf[..n]);
            }
            got
        });
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while !conn.flush().unwrap() {
            assert!(Instant::now() < deadline, "flush made no progress");
            std::thread::yield_now();
        }
        assert!(!conn.wants_write());
        assert_eq!(conn.pending_write_bytes(), 0);
        let got = reader.join().unwrap();
        assert_eq!(got, expect, "scatter-gather reordered or corrupted bytes");
    }

    /// `fill` + `next_request` round-trips pipelined requests and
    /// reports EOF exactly once the peer closes.
    #[test]
    fn fill_decodes_pipelined_requests_and_sees_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut conn = Conn::new(accepted, MAX_REQUEST_FRAME).unwrap();

        let reqs: Vec<Request> = (0..100)
            .map(|i| Request::Io {
                seq: i,
                write: i % 3 == 0,
                disk: i % 4,
                block: u64::from(i) * 7,
                blocks: 1,
            })
            .collect();
        let mut wire = Vec::new();
        for r in &reqs {
            encode_request(r, &mut wire);
        }
        peer.write_all(&wire).unwrap();
        drop(peer);

        let mut got = Vec::new();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        'outer: loop {
            assert!(Instant::now() < deadline, "never saw EOF");
            let outcome = conn.fill().unwrap();
            while let Some(req) = conn.next_request().unwrap() {
                got.push(req);
            }
            if let FillOutcome::Eof(_) = outcome {
                break 'outer;
            }
        }
        assert_eq!(got, reqs);
    }

    /// The read window reclaims to the idle footprint after a flush
    /// with nothing queued.
    #[test]
    fn idle_connections_reclaim_their_read_window() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let mut conn = Conn::new(accepted, MAX_REQUEST_FRAME).unwrap();
        assert!(conn.flush().unwrap());
        assert!(
            conn.buffer_bytes() <= READ_BUF,
            "idle footprint blew past the window: {}",
            conn.buffer_bytes()
        );
    }
}
