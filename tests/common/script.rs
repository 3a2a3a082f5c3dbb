//! Deterministic I/O harness for the readiness-driven ingest loop: an
//! in-memory transport ([`ScriptedIo`]) and an [`EventSource`] stand-in
//! ([`ScriptedSource`]) that replay *exact* readiness schedules — partial
//! reads at chosen byte boundaries, short writes under a per-call cap,
//! injection of new connections at chosen ticks — which real sockets
//! cannot be made to produce on demand. The production `EventLoop` runs
//! against these unmodified, so what the batteries prove holds for the
//! TCP path bit-for-bit.

#![allow(dead_code)]

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use causaltad_suite::net::{
    response_from_frame, EventSource, FrameAssembler, Interest, Readiness, Response,
    DEFAULT_MAX_FRAME,
};

/// One scripted step of a transport's read side.
enum ReadStep {
    /// Bytes the next `read` calls return (split across calls if the
    /// caller's buffer is smaller).
    Data(Vec<u8>),
    /// Report `WouldBlock` once — the boundary between two ticks' worth
    /// of arrived bytes (a drained socket).
    WouldBlock,
    /// A clean end of stream.
    Eof,
}

/// Shared state behind one scripted connection: the test half pushes
/// reads and collects writes; the event-loop half owns a [`ScriptedIo`]
/// over the same state.
struct ScriptedState {
    reads: VecDeque<ReadStep>,
    written: Vec<u8>,
    /// Max bytes one `write` call accepts (`usize::MAX` = unlimited;
    /// small values force short writes).
    write_cap: usize,
    /// Total bytes `write` accepts before reporting `WouldBlock`
    /// (replenished by the script to model a draining peer socket).
    write_window: usize,
}

/// The event-loop half of a scripted connection: `Read`/`Write` over the
/// shared script. An exhausted read script reports `WouldBlock` (the
/// connection stays open until the script pushes [`ScriptedHandle::eof`]).
pub struct ScriptedIo(Arc<Mutex<ScriptedState>>);

/// The test half of a scripted connection.
#[derive(Clone)]
pub struct ScriptedHandle(Arc<Mutex<ScriptedState>>);

/// A connected scripted pair: the transport to inject into the loop and
/// the handle the test keeps.
pub fn scripted_conn() -> (ScriptedIo, ScriptedHandle) {
    let state = Arc::new(Mutex::new(ScriptedState {
        reads: VecDeque::new(),
        written: Vec::new(),
        write_cap: usize::MAX,
        write_window: usize::MAX,
    }));
    (ScriptedIo(Arc::clone(&state)), ScriptedHandle(state))
}

impl ScriptedHandle {
    /// Queues one tick's worth of arrived bytes: the connection's reads
    /// return them, then report `WouldBlock` (the socket is drained until
    /// the next scripted chunk).
    pub fn push_read(&self, bytes: &[u8]) {
        let mut s = self.0.lock().unwrap();
        s.reads.push_back(ReadStep::Data(bytes.to_vec()));
        s.reads.push_back(ReadStep::WouldBlock);
    }

    /// Ends the read stream cleanly after everything queued so far.
    pub fn eof(&self) {
        self.0.lock().unwrap().reads.push_back(ReadStep::Eof);
    }

    /// Caps how many bytes a single `write` call accepts.
    pub fn set_write_cap(&self, cap: usize) {
        self.0.lock().unwrap().write_cap = cap;
    }

    /// Sets how many total bytes writes accept before `WouldBlock`
    /// (models a full peer socket; bump it to model the peer draining).
    pub fn set_write_window(&self, window: usize) {
        self.0.lock().unwrap().write_window = window;
    }

    /// Takes every byte written so far.
    pub fn take_written(&self) -> Vec<u8> {
        std::mem::take(&mut self.0.lock().unwrap().written)
    }

    /// Bytes written so far, without consuming them.
    pub fn written_len(&self) -> usize {
        self.0.lock().unwrap().written.len()
    }
}

impl Read for ScriptedIo {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut s = self.0.lock().unwrap();
        match s.reads.front_mut() {
            None => Err(std::io::ErrorKind::WouldBlock.into()),
            Some(ReadStep::WouldBlock) => {
                s.reads.pop_front();
                Err(std::io::ErrorKind::WouldBlock.into())
            }
            Some(ReadStep::Eof) => Ok(0),
            Some(ReadStep::Data(chunk)) => {
                let n = chunk.len().min(buf.len());
                buf[..n].copy_from_slice(&chunk[..n]);
                chunk.drain(..n);
                if chunk.is_empty() {
                    s.reads.pop_front();
                }
                Ok(n)
            }
        }
    }
}

impl Write for ScriptedIo {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut s = self.0.lock().unwrap();
        let n = buf.len().min(s.write_cap).min(s.write_window);
        if n == 0 {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        s.write_window -= n;
        let chunk = buf[..n].to_vec();
        s.written.extend_from_slice(&chunk);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Splits a scripted connection's written bytes back into decoded
/// response frames, refusing trailing garbage or partial frames.
pub fn parse_written(bytes: &[u8]) -> Vec<Response> {
    let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME);
    asm.feed(bytes);
    let mut out = Vec::new();
    while let Some(frame) = asm.next_frame().expect("written stream frames cleanly") {
        out.push(response_from_frame(frame).expect("written frame decodes"));
    }
    assert!(!asm.has_partial(), "trailing partial frame in written stream");
    out
}

/// One scripted event-loop tick: transports injected before readiness is
/// reported, then the readiness reports themselves. Keys are connection
/// ids in injection order (a fresh core assigns `0, 1, 2, …`).
#[derive(Default)]
pub struct Tick {
    pub inject: Vec<ScriptedIo>,
    pub ready: Vec<Readiness>,
    /// Side effects applied when the tick starts (inside `wait`, before
    /// readiness is reported) — e.g. widening a connection's write
    /// window to model the peer draining its socket.
    pub actions: Vec<Box<dyn FnOnce() + Send>>,
    /// Set by [`Tick::idle_until`]: the tick repeats, empty, until the
    /// predicate holds.
    pub until: Option<Box<dyn Fn() -> bool + Send>>,
}

impl Tick {
    pub fn new() -> Tick {
        Tick::default()
    }

    /// An idle stretch of unknown length, for schedules that involve a
    /// second thread (a router's recovery driver posting work to the
    /// loop): every time the loop reaches this entry and `done()` is
    /// still false, `wait` blocks until the source's wake handle is
    /// called — exactly as a kernel poller would — and reports an empty
    /// tick; once `done()` holds the schedule moves on. No sleeping, no
    /// polling: the loop ticks when, and only when, it is woken.
    pub fn idle_until(done: impl Fn() -> bool + Send + 'static) -> Tick {
        Tick { until: Some(Box::new(done)), ..Tick::default() }
    }

    pub fn inject(mut self, io: ScriptedIo) -> Tick {
        self.inject.push(io);
        self
    }

    pub fn act(mut self, f: impl FnOnce() + Send + 'static) -> Tick {
        self.actions.push(Box::new(f));
        self
    }

    pub fn readable(mut self, key: u64) -> Tick {
        self.ready.push(Readiness { key, readable: true, writable: false });
        self
    }

    pub fn writable(mut self, key: u64) -> Tick {
        self.ready.push(Readiness { key, readable: false, writable: true });
        self
    }

    pub fn both(mut self, key: u64) -> Tick {
        self.ready.push(Readiness { key, readable: true, writable: true });
        self
    }
}

/// An [`EventSource`] that replays a fixed schedule of ticks, reporting
/// scripted readiness filtered through the interest the loop registered —
/// exactly what a level-triggered kernel poller would report — and
/// logging every interest transition for assertions (pause/resume,
/// write-interest lifecycle). `wait` returns `Ok(false)` when the
/// schedule is exhausted, which shuts the loop down cleanly.
pub struct ScriptedSource {
    ticks: VecDeque<Tick>,
    registered: HashMap<u64, Interest>,
    pending_inject: Vec<ScriptedIo>,
    /// Every `(key, interest)` transition, in order: registrations and
    /// reregistrations alike. Shared so the test keeps a handle after the
    /// event loop takes ownership of the source.
    interest_log: Arc<Mutex<Vec<(u64, Interest)>>>,
    /// Set by the wake handle, consumed by an [`Tick::idle_until`] wait.
    woken: Arc<(Mutex<bool>, Condvar)>,
}

impl ScriptedSource {
    pub fn new(ticks: Vec<Tick>) -> ScriptedSource {
        ScriptedSource {
            ticks: ticks.into(),
            registered: HashMap::new(),
            pending_inject: Vec::new(),
            interest_log: Arc::new(Mutex::new(Vec::new())),
            woken: Arc::new((Mutex::new(false), Condvar::new())),
        }
    }

    /// A handle on the interest-transition log that survives the source
    /// moving into the event loop.
    pub fn log_handle(&self) -> Arc<Mutex<Vec<(u64, Interest)>>> {
        Arc::clone(&self.interest_log)
    }

    /// The interest currently registered for `key` (None once
    /// deregistered).
    pub fn interest_of(&self, key: u64) -> Option<Interest> {
        self.registered.get(&key).copied()
    }
}

impl EventSource<ScriptedIo> for ScriptedSource {
    fn register(&mut self, key: u64, _io: &ScriptedIo, interest: Interest) -> std::io::Result<()> {
        self.registered.insert(key, interest);
        self.interest_log.lock().unwrap().push((key, interest));
        Ok(())
    }

    fn reregister(
        &mut self,
        key: u64,
        _io: &ScriptedIo,
        interest: Interest,
    ) -> std::io::Result<()> {
        self.registered.insert(key, interest);
        self.interest_log.lock().unwrap().push((key, interest));
        Ok(())
    }

    fn deregister(&mut self, key: u64, _io: &ScriptedIo) -> std::io::Result<()> {
        self.registered.remove(&key);
        Ok(())
    }

    fn wait(
        &mut self,
        out: &mut Vec<Readiness>,
        _timeout: Option<std::time::Duration>,
    ) -> std::io::Result<bool> {
        // The scripted schedule *is* the clock: timeouts are ignored and
        // every tick is one scripted entry.
        out.clear();
        while let Some(done) = self.ticks.front().and_then(|tick| tick.until.as_ref()) {
            if done() {
                self.ticks.pop_front();
                continue;
            }
            let (flag, cond) = &*self.woken;
            let (mut woken, timeout) = cond
                .wait_timeout_while(flag.lock().unwrap(), Duration::from_secs(30), |woken| !*woken)
                .unwrap();
            assert!(!timeout.timed_out(), "idle_until: nobody woke the loop for 30 s");
            *woken = false;
            return Ok(true);
        }
        let Some(tick) = self.ticks.pop_front() else {
            return Ok(false);
        };
        for action in tick.actions {
            action();
        }
        self.pending_inject = tick.inject;
        for r in tick.ready {
            // Injected connections register *after* wait returns, so a
            // same-tick readiness for a brand-new key must pass through
            // unfiltered (the loop itself guards unknown keys).
            let masked = match self.registered.get(&r.key) {
                Some(i) => Readiness {
                    key: r.key,
                    readable: r.readable && i.readable,
                    writable: r.writable && i.writable,
                },
                None => r,
            };
            if masked.readable || masked.writable {
                out.push(masked);
            }
        }
        Ok(true)
    }

    fn accept_injected(&mut self) -> Vec<ScriptedIo> {
        std::mem::take(&mut self.pending_inject)
    }

    fn wake_handle(&self) -> Arc<dyn Fn() + Send + Sync> {
        let woken = Arc::clone(&self.woken);
        Arc::new(move || {
            *woken.0.lock().unwrap() = true;
            woken.1.notify_one();
        })
    }
}
