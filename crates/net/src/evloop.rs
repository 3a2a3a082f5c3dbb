//! Building blocks of the readiness-driven ingest event loop: the
//! per-connection nonblocking state machine ([`Conn`]), the readiness
//! abstraction ([`EventSource`]) that lets the whole loop run against
//! scripted in-memory I/O in tests, and the production
//! epoll-backed source ([`PollSource`]).
//!
//! The design splits "what the kernel says" from "what the server does
//! with it". An [`EventSource`] produces [`Readiness`] reports per tick;
//! [`crate::FrontDoor`] turns them into reads, frame reassembly and
//! writes (and [`crate::EventLoop`] the frames into cohort submissions),
//! all through [`Conn`] — which is generic over any `Read + Write`
//! transport. Production instantiates the loop with
//! [`PollSource`] + `TcpStream`; the deterministic test harness
//! instantiates it with a scripted source and in-memory streams and
//! replays exact readiness schedules (partial reads, short writes,
//! hostile interleavings) that real sockets cannot be made to produce on
//! demand.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use polling::{Event, Events, Poller};

use crate::frame::FrameError;
use crate::wire::{FrameAssembler, RecvError};

/// What one descriptor reported in one event-loop tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Readiness {
    /// Connection key, as passed to [`EventSource::register`].
    pub key: u64,
    /// The transport can (probably) produce bytes without blocking.
    pub readable: bool,
    /// The transport can (probably) accept bytes without blocking.
    pub writable: bool,
}

/// The readiness a connection currently wants reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report read readiness (off while a slow consumer is throttled or
    /// the connection is draining toward close).
    pub readable: bool,
    /// Report write readiness (on only while a write backlog exists).
    pub writable: bool,
}

/// A source of readiness events driving one event-loop worker — the
/// kernel poller in production, a scripted schedule in the deterministic
/// test harness. Generic over the transport type so registration can
/// reach the underlying descriptor (or ignore it, for in-memory
/// transports).
pub trait EventSource<T> {
    /// Starts reporting readiness for `io` under `key`.
    ///
    /// # Errors
    /// Registration with the OS failed; the connection is dropped.
    fn register(&mut self, key: u64, io: &T, interest: Interest) -> std::io::Result<()>;

    /// Changes what is reported for an already-registered connection.
    ///
    /// # Errors
    /// The OS rejected the update; the connection is dropped.
    fn reregister(&mut self, key: u64, io: &T, interest: Interest) -> std::io::Result<()>;

    /// Stops reporting readiness for `io`. Must be called before the
    /// transport is closed.
    ///
    /// # Errors
    /// The OS rejected the removal (the connection is closed regardless).
    fn deregister(&mut self, key: u64, io: &T) -> std::io::Result<()>;

    /// Blocks until readiness (or a wake) is available and fills `out`.
    /// `Ok(false)` means the source is exhausted — a scripted schedule
    /// ran out — and the loop should stop. A bare wake legitimately
    /// fills nothing.
    ///
    /// `timeout` bounds the wait: the loop passes one whenever it has
    /// time-driven work pending (idle-connection reaping, throttled
    /// connections waiting on token refill) so those fire even on a
    /// connection set producing no I/O. `None` means wait indefinitely.
    /// Returning on timeout with an empty `out` is a legitimate tick.
    /// Scripted sources may ignore it — their schedule *is* the clock.
    ///
    /// # Errors
    /// The wait itself failed; the loop stops.
    fn wait(
        &mut self,
        out: &mut Vec<Readiness>,
        timeout: Option<Duration>,
    ) -> std::io::Result<bool>;

    /// Hands over transports injected from outside the loop (the acceptor
    /// thread, in production) since the last tick. Defaults to none.
    fn accept_injected(&mut self) -> Vec<T> {
        Vec::new()
    }

    /// A thread-safe closure other threads call to make [`EventSource::wait`]
    /// return promptly (response deliverers marking a connection dirty).
    /// Defaults to a no-op — right for single-threaded scripted sources,
    /// whose schedule already decides when the loop runs.
    fn wake_handle(&self) -> Arc<dyn Fn() + Send + Sync> {
        Arc::new(|| {})
    }
}

/// Per-connection nonblocking state machine: incremental frame
/// reassembly on the read side — each whole frame lent to the caller as
/// a slice of the read buffer, never copied out — and a queue of byte
/// runs on the write side.
/// Generic over the transport so the deterministic harness can drive it
/// with scripted in-memory streams; production uses `Conn<TcpStream>`
/// with the socket in nonblocking mode.
#[derive(Debug)]
pub struct Conn<T> {
    io: T,
    asm: FrameAssembler,
    /// Bytes waiting for the transport, oldest run first. A run is freed
    /// the moment its last byte is written, so the backlog's memory
    /// follows the backlog instead of its high-water mark.
    wq: VecDeque<BytesMut>,
    /// First unwritten byte of the front run.
    wpos: usize,
    /// Unwritten bytes across `wq`.
    backlog: usize,
}

/// Why [`Conn::lend_frames`] stopped consuming bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStatus {
    /// The transport has no more bytes right now; wait for readiness.
    WouldBlock,
    /// The per-tick read budget is spent; more bytes may remain (a
    /// level-triggered source re-reports them next tick, preserving
    /// fairness across connections).
    BudgetSpent,
    /// Clean frame-aligned end of stream.
    Eof,
}

/// Size of the stack-free read chunk (amortised across a connection's
/// lifetime).
const READ_CHUNK: usize = 16 << 10;

/// [`Conn::queue_with`] appends to the newest queued run while it is
/// shorter than this.
const WRITE_RUN: usize = 64 << 10;

impl<T: Read + Write> Conn<T> {
    /// Wraps a transport (already nonblocking, for real sockets) with an
    /// assembler refusing frames over `max_frame`.
    pub fn new(io: T, max_frame: usize) -> Conn<T> {
        Conn { io, asm: FrameAssembler::new(max_frame), wq: VecDeque::new(), wpos: 0, backlog: 0 }
    }

    /// The transport, for registration with an [`EventSource`].
    pub fn io(&self) -> &T {
        &self.io
    }

    /// Reads until the transport would block, `budget` bytes were
    /// consumed, or EOF, and lends every frame completed along the way to
    /// `visit`, in arrival order, as a slice of the connection's read
    /// buffer: one whole envelope, unverified beyond its header.
    ///
    /// # Errors
    /// [`RecvError::Io`] for transport failures — including an EOF while
    /// a partial frame is buffered, which is a peer vanishing mid-frame —
    /// and [`RecvError::Frame`] the moment buffered bytes prove the
    /// stream hostile or `visit` refuses a frame; reading stops there.
    /// Frames visited before the error were valid.
    pub fn lend_frames(
        &mut self,
        budget: usize,
        mut visit: impl FnMut(&[u8]) -> Result<(), FrameError>,
    ) -> Result<ReadStatus, RecvError> {
        let mut chunk = [0u8; READ_CHUNK];
        let mut consumed = 0usize;
        loop {
            if consumed >= budget {
                return Ok(ReadStatus::BudgetSpent);
            }
            let want = READ_CHUNK.min(budget - consumed);
            match self.io.read(&mut chunk[..want]) {
                Ok(0) => {
                    if self.asm.has_partial() {
                        return Err(RecvError::Io(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "peer closed mid-frame",
                        )));
                    }
                    return Ok(ReadStatus::Eof);
                }
                Ok(n) => {
                    consumed += n;
                    self.asm.feed(&chunk[..n]);
                    while let Some(frame) = self.asm.next_frame()? {
                        visit(frame)?;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(ReadStatus::WouldBlock)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(RecvError::Io(e)),
            }
        }
    }

    /// [`Conn::lend_frames`] with every frame copied out and appended to
    /// `out`; frames pushed before an error are valid.
    ///
    /// # Errors
    /// As [`Conn::lend_frames`].
    pub fn read_frames(
        &mut self,
        budget: usize,
        out: &mut Vec<Bytes>,
    ) -> Result<ReadStatus, RecvError> {
        self.lend_frames(budget, |frame| {
            out.push(Bytes::from(frame));
            Ok(())
        })
    }

    /// Appends already-serialised frame bytes to the write backlog (no
    /// I/O; call [`Conn::flush_writes`] to move them to the transport).
    pub fn queue_bytes(&mut self, bytes: &[u8]) {
        self.queue_with(|run| run.put_slice(bytes));
    }

    /// Lets `encode` append frames to the write backlog in place — onto
    /// the newest queued run while it is shorter than 64 KiB, so a tick's
    /// small frames leave in one write without any one run (and the copy
    /// that grows it) getting large. No I/O.
    pub fn queue_with(&mut self, encode: impl FnOnce(&mut BytesMut)) {
        if self.wq.back().is_none_or(|run| run.len() >= WRITE_RUN) {
            self.wq.push_back(BytesMut::new());
        }
        let run = self.wq.back_mut().expect("a run was just ensured");
        let before = run.len();
        encode(run);
        self.backlog += run.len() - before;
        if run.is_empty() {
            // Nothing was encoded: an empty run would read as a
            // zero-byte write.
            self.wq.pop_back();
        }
    }

    /// Queues an owned run of serialised frames behind the backlog as it
    /// is — no copy; the transport is written from the run itself.
    pub(crate) fn queue_run(&mut self, run: BytesMut) {
        if !run.is_empty() {
            self.backlog += run.len();
            self.wq.push_back(run);
        }
    }

    /// Writes backlog to the transport until it would block or the
    /// backlog drains. `Ok(true)` means fully drained.
    ///
    /// # Errors
    /// Transport failures (a zero-byte write is reported as
    /// [`std::io::ErrorKind::WriteZero`]); the connection is dead.
    pub fn flush_writes(&mut self) -> std::io::Result<bool> {
        while let Some(run) = self.wq.front() {
            match self.io.write(&run[self.wpos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "transport accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.wpos += n;
                    self.backlog -= n;
                    if self.wpos == run.len() {
                        self.wq.pop_front();
                        self.wpos = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Bytes queued but not yet accepted by the transport.
    pub fn write_backlog(&self) -> usize {
        self.backlog
    }

    /// Whether a write backlog exists (drives write-interest
    /// registration).
    pub fn wants_write(&self) -> bool {
        self.backlog > 0
    }
}

/// Shared state behind a [`PollSource`] and its [`PollWaker`]s.
struct PollShared {
    poller: Poller,
    injected: Mutex<Vec<TcpStream>>,
}

/// The production [`EventSource`]: kernel readiness via the vendored
/// `polling` wrapper (epoll; Linux only), with an injection
/// queue the acceptor thread uses to hand new sockets to the worker.
pub struct PollSource {
    shared: Arc<PollShared>,
    events: Events,
}

/// A cheap cloneable handle for waking a [`PollSource`]'s worker from
/// other threads — the acceptor (to inject a socket) and response
/// deliverers (to get a dirty connection flushed).
#[derive(Clone)]
pub struct PollWaker {
    shared: Arc<PollShared>,
}

impl PollSource {
    /// Creates a source with its own kernel poller.
    ///
    /// # Errors
    /// The OS refused to create the poller.
    pub fn new() -> std::io::Result<PollSource> {
        Ok(PollSource {
            shared: Arc::new(PollShared {
                poller: Poller::new()?,
                injected: Mutex::new(Vec::new()),
            }),
            events: Events::new(),
        })
    }

    /// A waker for this source.
    pub fn waker(&self) -> PollWaker {
        PollWaker { shared: Arc::clone(&self.shared) }
    }
}

impl PollWaker {
    /// Makes the worker's current (or next) wait return promptly.
    pub fn wake(&self) {
        let _ = self.shared.poller.notify();
    }

    /// Queues a freshly accepted socket for the worker to adopt, and
    /// wakes it.
    pub fn inject(&self, io: TcpStream) {
        self.shared.injected.lock().expect("inject queue").push(io);
        self.wake();
    }
}

fn interest_event(key: u64, interest: Interest) -> Event {
    Event { key: key as usize, readable: interest.readable, writable: interest.writable }
}

impl EventSource<TcpStream> for PollSource {
    fn register(&mut self, key: u64, io: &TcpStream, interest: Interest) -> std::io::Result<()> {
        self.shared.poller.add(io, interest_event(key, interest))
    }

    fn reregister(&mut self, key: u64, io: &TcpStream, interest: Interest) -> std::io::Result<()> {
        self.shared.poller.modify(io, interest_event(key, interest))
    }

    fn deregister(&mut self, _key: u64, io: &TcpStream) -> std::io::Result<()> {
        self.shared.poller.delete(io)
    }

    fn wait(
        &mut self,
        out: &mut Vec<Readiness>,
        timeout: Option<Duration>,
    ) -> std::io::Result<bool> {
        out.clear();
        self.shared.poller.wait(&mut self.events, timeout)?;
        for ev in self.events.iter() {
            out.push(Readiness {
                key: ev.key as u64,
                readable: ev.readable,
                writable: ev.writable,
            });
        }
        Ok(true)
    }

    fn accept_injected(&mut self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.shared.injected.lock().expect("inject queue"))
    }

    fn wake_handle(&self) -> Arc<dyn Fn() + Send + Sync> {
        let waker = self.waker();
        Arc::new(move || waker.wake())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{request_from_bytes, request_to_bytes, Request};
    use std::collections::VecDeque;

    /// Minimal scripted transport for the unit tier (the full harness
    /// lives in the repository's tests/common).
    struct Scripted {
        reads: VecDeque<Option<Vec<u8>>>, // None = WouldBlock, empty deque = EOF
        written: Vec<u8>,
        write_cap: usize,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.reads.front_mut() {
                None => Ok(0),
                Some(None) => {
                    self.reads.pop_front();
                    Err(std::io::ErrorKind::WouldBlock.into())
                }
                Some(Some(chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    chunk.drain(..n);
                    if chunk.is_empty() {
                        self.reads.pop_front();
                    }
                    Ok(n)
                }
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.write_cap);
            if n == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_reads_reassemble_and_budget_is_respected() {
        let req = Request::Segment { id: 9, seg: 4 };
        let blob = request_to_bytes(&req).to_vec();
        // One byte per readiness "tick", a WouldBlock between each.
        let mut reads = VecDeque::new();
        for b in &blob {
            reads.push_back(Some(vec![*b]));
            reads.push_back(None);
        }
        let mut conn =
            Conn::new(Scripted { reads, written: Vec::new(), write_cap: usize::MAX }, 1024);
        let mut frames = Vec::new();
        let mut spins = 0;
        while frames.is_empty() {
            match conn.read_frames(usize::MAX, &mut frames).expect("clean stream") {
                ReadStatus::WouldBlock => spins += 1,
                ReadStatus::Eof => panic!("eof before the frame completed"),
                ReadStatus::BudgetSpent => unreachable!("unbounded budget"),
            }
        }
        assert_eq!(request_from_bytes(frames.pop().unwrap()).expect("decodes"), req);
        assert!(spins > 0, "the scripted WouldBlocks were exercised");

        // Budget: a 1-byte budget consumes at most one byte per call.
        let mut reads = VecDeque::new();
        reads.push_back(Some(blob.clone()));
        let mut conn =
            Conn::new(Scripted { reads, written: Vec::new(), write_cap: usize::MAX }, 1024);
        let mut frames = Vec::new();
        for _ in 0..blob.len() {
            assert!(frames.is_empty());
            assert_eq!(conn.read_frames(1, &mut frames).expect("clean"), ReadStatus::BudgetSpent);
        }
        assert_eq!(frames.len(), 1);
    }

    #[test]
    fn short_writes_drain_bit_identically() {
        let req = Request::TripStart { id: 1, source: 2, dest: 3, time_slot: 4 };
        let blob = request_to_bytes(&req).to_vec();
        for cap in 1..=blob.len() {
            let mut conn = Conn::new(
                Scripted { reads: VecDeque::new(), written: Vec::new(), write_cap: cap },
                1024,
            );
            conn.queue_bytes(&blob);
            assert!(conn.wants_write());
            while !conn.flush_writes().expect("transport accepts") {}
            assert!(!conn.wants_write());
            assert_eq!(conn.io().written, blob, "cap={cap}");
        }
    }

    #[test]
    fn eof_mid_frame_is_a_transport_error() {
        let blob = request_to_bytes(&Request::Flush).to_vec();
        let mut reads = VecDeque::new();
        reads.push_back(Some(blob[..blob.len() - 1].to_vec()));
        let mut conn =
            Conn::new(Scripted { reads, written: Vec::new(), write_cap: usize::MAX }, 1024);
        let mut frames = Vec::new();
        match conn.read_frames(usize::MAX, &mut frames) {
            Err(RecvError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
        assert!(frames.is_empty());
    }
}
