//! The transport-only front door: everything a `TADN` server does with
//! its producer connections that does not depend on what sits behind it.
//! [`crate::NetServer`] (a fleet engine behind it) and `tad-router`'s
//! `RouterServer` (backend links behind it) both run their producer side
//! on this one core.
//!
//! A [`FrontDoor`] is one event worker's half: it adopts accepted
//! transports against the connection quota, reads and decodes frames
//! under a per-tick budget, owns each connection's bounded [`Outbound`]
//! response queue and write backlog, pauses a slow consumer's reads at
//! the write high-water mark, runs the per-connection token bucket and
//! the idle reaper, and reconciles poller interest at the end of every
//! tick. The response queue holds *encoded* frames — whoever pushes a
//! response encodes it, once ([`FrontShared::deliver_chunk`] and
//! [`FrontDoor::push_chunk`] take a whole run of them) — with a frame
//! count beside the bytes, which is what [`NetConfig::response_queue`]
//! bounds; the worker hands the runs to the transport as they are. The
//! door is generic over [`EventSource`] and the transport, so the
//! deterministic harness drives the production code with scripted I/O.
//! A server with transports of its own (the router's backend links)
//! registers them on the door's source ([`FrontDoor::source_mut`]) and
//! gets their readiness back as [`FrontEvent::Foreign`], so one thread
//! and one wait serve both socket sets; [`FrontDoor::hold_reads`] stops
//! the door reading any producer while that server cannot take frames.
//! The [`FrontShared`] half is the connection table other threads
//! deliver responses into. [`FrontListener`] is the production wiring:
//! one acceptor thread dealing sockets to a fixed pool of workers.
//!
//! The server drives the door, not the other way round — each tick is
//!
//! ```text
//! door.poll(&mut events)      wait, adopt, pump writable, read + decode
//! for ev in events { .. }     the server's part: claims, forwarding, admin
//! door.finish_tick(start)     drain dirty queues, reap idle, sweep
//! ```
//!
//! and the door reports every connection it loses ([`FrontEvent::Hangup`]
//! in arrival order, the return of [`FrontDoor::finish_tick`] for the
//! rest) so the server can drop whatever it routes to that connection.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

use bytes::{BufMut, BytesMut};
use tad_codec::envelope::{ENVELOPE_HEADER_LEN, ENVELOPE_OVERHEAD};
use tad_metrics::Counter;

use crate::evloop::{Conn, EventSource, Interest, PollSource, PollWaker, ReadStatus, Readiness};
use crate::frame::{
    request_from_bytes, response_into, response_to_bytes, ErrorCode, FrameError, Request, Response,
    DEFAULT_MAX_FRAME,
};
use crate::wire::RecvError;

/// Per-connection, per-tick read budget in bytes, for producer
/// connections here and for `tad-router`'s backend links. A firehosing
/// connection yields the tick after this much; a level-triggered poller
/// re-reports it next tick, keeping latency fair across connections
/// sharing a worker — and one tick's worth of scores read off a router
/// link cannot overflow a producer's bounded response queue before the
/// tick's end drains it.
pub const READ_BUDGET: usize = 256 << 10;

/// Cap on events coalesced into one cross-connection cohort before the
/// worker submits mid-tick (bounds per-tick submission latency under
/// firehose load).
pub(crate) const MAX_COHORT: usize = 8_192;

/// Kernel accept-queue depth requested at bind (capped by the OS
/// `somaxconn`). The queue absorbs connect storms while the acceptor
/// thread is descheduled: with the 128-slot `std` default, a burst of a
/// few hundred connects on a busy host overflows the queue and the
/// overflowed peers' SYNs are silently dropped, stalling each of them ~1s
/// on retransmission before they ever reach the accept-time quota check.
const ACCEPT_BACKLOG: i32 = 1024;

/// Tunables of the network front-end (the engine has its own
/// [`tad_serve::FleetConfig`]). Accepted sockets always get `TCP_NODELAY`
/// (score frames are small and latency-sensitive).
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Cap on one frame's payload length; frames announcing more are
    /// refused before allocation. Defaults to
    /// [`DEFAULT_MAX_FRAME`] (64 MiB).
    pub max_frame_len: usize,
    /// Bound of each connection's outgoing response queue, in frames
    /// (the queue holds them encoded). A client that stops draining loses
    /// responses beyond this (counted in [`NetStats::responses_dropped`])
    /// instead of growing server memory.
    pub response_queue: usize,
    /// Event-loop worker threads multiplexing the connections. `0`
    /// (default) sizes to half the machine's parallelism, clamped to
    /// `1..=4` — ingest decode is cheap next to shard scoring, so a few
    /// pollers drive many connections.
    pub event_workers: usize,
    /// Write-backlog mark, in bytes, at which a connection's reads are
    /// paused (a slow consumer must drain responses before sending more
    /// events). Reads resume once the backlog falls to half this.
    pub write_highwater: usize,
    /// Cap on concurrently open connections across the whole server
    /// (`0` = unlimited, the default). A connection over the quota is
    /// answered with one typed [`ErrorCode::ConnLimit`] error at accept
    /// time — a clean refusal, not a silent hangup — then closed, and
    /// counted in [`NetStats::conns_rejected`]. Enforced against the
    /// global open count, so the quota holds across event workers
    /// (workers adopting simultaneously may overshoot by at most the
    /// worker count).
    pub max_connections: usize,
    /// Reap a connection that has decoded no frame *and* routes no
    /// in-flight trip for this long (`None` = never, the default). The
    /// reaped peer gets a best-effort [`ErrorCode::IdleTimeout`] error
    /// before the close; reaps are counted in [`NetStats::idle_reaped`].
    /// A connection with any live trip claim is never idle — a producer
    /// mid-trip keeps its response route no matter how long it pauses.
    pub idle_timeout: Option<Duration>,
    /// Per-connection sustained ingest rate limit, in events per second
    /// (`0` = off, the default). Enforced as a token bucket: each ingest
    /// event (`TripStart`/`Segment`/`TripEnd`) costs one token; a
    /// connection that overdraws its bucket has its reads paused exactly
    /// like a slow consumer and is told why with one typed
    /// [`ErrorCode::Throttled`] error per episode, carrying a
    /// `retry_after_ms` pacing hint. Events already decoded are always
    /// admitted (the bucket goes negative), so admitted traffic is
    /// bit-identical to an unthrottled run — the limiter changes *when*
    /// frames are read, never what happens to them.
    pub rate_limit_segments_per_s: u64,
    /// Token-bucket capacity for [`NetConfig::rate_limit_segments_per_s`]
    /// — the burst a connection may send from a full bucket before the
    /// sustained rate applies. `0` (the default) uses the per-second rate
    /// as the burst.
    pub rate_limit_burst: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_frame_len: DEFAULT_MAX_FRAME,
            response_queue: 65_536,
            event_workers: 0,
            write_highwater: 1 << 20,
            max_connections: 0,
            idle_timeout: None,
            rate_limit_segments_per_s: 0,
            rate_limit_burst: 0,
        }
    }
}

impl NetConfig {
    /// Rejects the zero bounds a server cannot answer with: a zero
    /// `max_frame_len` refuses every request, a zero `response_queue`
    /// drops every reply, and a zero `write_highwater` never hands a frame
    /// to the socket, so a waiting client hangs.
    ///
    /// # Errors
    /// The first zero field, as `"<field> must be >= 1"`.
    pub fn check(&self) -> Result<(), &'static str> {
        if self.max_frame_len == 0 {
            return Err("max_frame_len must be >= 1");
        }
        if self.response_queue == 0 {
            return Err("response_queue must be >= 1");
        }
        if self.write_highwater == 0 {
            return Err("write_highwater must be >= 1");
        }
        Ok(())
    }

    /// The worker count [`NetConfig::event_workers`] resolves to on this
    /// machine.
    fn resolved_workers(&self) -> usize {
        if self.event_workers > 0 {
            return self.event_workers;
        }
        std::thread::available_parallelism().map(|n| n.get() / 2).unwrap_or(1).clamp(1, 4)
    }

    /// Token-bucket capacity: the configured burst, or one second's worth
    /// of the sustained rate.
    fn burst(&self) -> f64 {
        match self.rate_limit_burst {
            0 => self.rate_limit_segments_per_s as f64,
            b => b as f64,
        }
    }
}

/// Point-in-time counters of the network layer (the engine's own counters
/// live in [`tad_serve::FleetSnapshot`]). The frame counters are
/// server-lifetime totals — they keep counting frames of connections that
/// have since closed; per-connection breakdowns come from
/// [`crate::NetServer::connection_stats`].
#[derive(Clone, Copy, Debug)]
pub struct NetStats {
    /// Connections accepted since the server started.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Responses dropped because their connection's queue was full or the
    /// connection was gone (slow or dead consumers).
    pub responses_dropped: u64,
    /// Request frames decoded off client sockets.
    pub frames_in: u64,
    /// Response frames handed to client sockets' write side.
    pub frames_out: u64,
    /// Backpressure `Error` replies sent (events bounced off a full shard
    /// queue).
    pub backpressure_replies: u64,
    /// Undecodable request frames received (each one costs the sender its
    /// connection).
    pub malformed_frames: u64,
    /// Times a connection's reads were paused because its write backlog
    /// crossed [`NetConfig::write_highwater`] (slow-consumer episodes,
    /// not per-event).
    pub slow_consumer_pauses: u64,
    /// Typed `Throttled` error replies sent — rate-limit episode notices
    /// plus admission-shed replies (one per shed event).
    pub throttled_replies: u64,
    /// Connections reaped by [`NetConfig::idle_timeout`].
    pub idle_reaped: u64,
    /// Connections refused at accept time by
    /// [`NetConfig::max_connections`].
    pub conns_rejected: u64,
}

/// Point-in-time counters of one open connection, from
/// [`crate::NetServer::connection_stats`].
#[derive(Clone, Copy, Debug)]
pub struct ConnectionStats {
    /// Server-side connection id (accept order).
    pub conn_id: u64,
    /// Request frames decoded from this connection.
    pub frames_in: u64,
    /// Response frames written to this connection.
    pub frames_out: u64,
    /// Backpressure `Error` replies sent to this connection.
    pub backpressure_replies: u64,
    /// Undecodable frames received from this connection.
    pub malformed_frames: u64,
}

/// Lock-free per-connection counters shared by the connection's event
/// worker and [`FrontShared::connection_stats`].
#[derive(Debug, Default)]
pub(crate) struct ConnCounters {
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    pub(crate) backpressure_replies: AtomicU64,
    malformed_frames: AtomicU64,
}

/// The typed refusals the front door counts. They are [`Counter`] handles
/// so a server that exposes them as metrics passes the ones registered in
/// its registry (`tad-net` does, as `net.*`) and one that does not passes
/// [`FrontCounters::default`] — the door itself records into no registry.
#[derive(Clone, Debug, Default)]
pub struct FrontCounters {
    /// Undecodable request frames (each costs the sender its connection).
    pub malformed: Arc<Counter>,
    /// Typed `Throttled` replies (rate-limit episode notices; a server
    /// may add its own admission sheds).
    pub throttled: Arc<Counter>,
    /// Connections reaped by the idle timeout.
    pub idle_reaped: Arc<Counter>,
    /// Connections refused by the connection quota.
    pub conns_rejected: Arc<Counter>,
}

/// Frames waiting in an [`Outbound`], already encoded: runs of whole
/// frames in delivery order, each with its frame count.
#[derive(Default)]
struct Pending {
    runs: VecDeque<(BytesMut, usize)>,
    /// Frames across `runs` — what [`NetConfig::response_queue`] bounds.
    frames: usize,
}

/// A pushed run shorter than this is appended to the newest queued run
/// (while that one is shorter too) instead of queued on its own, so a
/// stream of single frames reaches the transport as a few writes.
const COALESCE_BELOW: usize = 64 << 10;

/// Byte length of the first `n` frames of `run`, a run of whole frames.
fn prefix_len(run: &[u8], n: usize) -> usize {
    let mut at = 0;
    for _ in 0..n {
        let header = &run[at..at + ENVELOPE_HEADER_LEN];
        let plen = u64::from_le_bytes(header[6..].try_into().expect("8 length bytes"));
        at += ENVELOPE_OVERHEAD + plen as usize;
    }
    at
}

/// One connection's outbound response queue, shared between the delivery
/// path (whatever thread produces responses, via [`FrontShared::deliver`]
/// and [`FrontShared::deliver_chunk`]) and the event worker that owns the
/// connection's socket. It holds frame bytes only: a response is encoded
/// by whoever pushes it, once, and the worker moves the bytes to the
/// transport as they are.
struct Outbound {
    q: Mutex<Pending>,
    cap: usize,
    /// Set while the connection sits on its worker's dirty list; keeps
    /// each push O(1) instead of O(list).
    dirty: AtomicBool,
    dirty_list: Arc<Mutex<Vec<u64>>>,
    wake: Arc<dyn Fn() + Send + Sync>,
    /// The owning worker's thread id: a push from the worker itself
    /// (admin replies, backpressure errors) skips the poller notify — the
    /// worker drains its dirty list before sleeping anyway, and a
    /// self-notify would schedule a spurious wake-up tick.
    worker: ThreadId,
    conn_id: u64,
}

impl Outbound {
    /// Queues `run`, `frames` whole encoded frames. A `bounded` push keeps
    /// only the leading frames the queue has room for; an unbounded one is
    /// for replies that must not be dropped (admin barriers, frame errors,
    /// the slow-consumer notice — bounded in practice by the client's own
    /// request pacing: each answers one inbound frame). Returns how many
    /// frames did not fit — the caller counts them dropped.
    fn push_run(&self, mut run: BytesMut, frames: usize, bounded: bool) -> usize {
        let kept = {
            let mut q = self.q.lock().expect("outbound queue");
            let room = if bounded { self.cap.saturating_sub(q.frames) } else { usize::MAX };
            let kept = frames.min(room);
            if kept < frames {
                run.truncate(prefix_len(&run, kept));
            }
            if kept == 0 {
                return frames;
            }
            q.frames += kept;
            match q.runs.back_mut() {
                Some((back, n)) if back.len().max(run.len()) < COALESCE_BELOW => {
                    back.put_slice(&run);
                    *n += kept;
                }
                _ => q.runs.push_back((run, kept)),
            }
            kept
        };
        self.mark_dirty();
        frames - kept
    }

    /// Encodes and queues one response; `false` means a bounded push
    /// found the queue full.
    fn push(&self, resp: &Response, bounded: bool) -> bool {
        let mut frame = BytesMut::with_capacity(ENVELOPE_OVERHEAD + 64);
        response_into(resp, &mut frame);
        self.push_run(frame, 1, bounded) == 0
    }

    fn mark_dirty(&self) {
        if !self.dirty.swap(true, Ordering::AcqRel) {
            self.dirty_list.lock().expect("dirty list").push(self.conn_id);
            if std::thread::current().id() != self.worker {
                (self.wake)();
            }
        }
    }

    /// Takes the oldest queued run and its frame count.
    fn pop(&self) -> Option<(BytesMut, usize)> {
        let mut q = self.q.lock().expect("outbound queue");
        let (run, frames) = q.runs.pop_front()?;
        q.frames -= frames;
        Some((run, frames))
    }

    fn is_empty(&self) -> bool {
        self.q.lock().expect("outbound queue").runs.is_empty()
    }
}

struct ConnHandle {
    out: Arc<Outbound>,
    counters: Arc<ConnCounters>,
    /// Trips currently routed to this connection — the idle reaper's
    /// "no in-flight work" proof. Adjusted through
    /// [`FrontShared::bump_live`] wherever the server creates or drops a
    /// claim, so a nonzero read means a response may still be owed.
    live_trips: Arc<AtomicU64>,
}

/// The half of a front door that other threads see: the table of open
/// connections responses are delivered into, the tunables, and the
/// counters. One per server, shared by every [`FrontDoor`] worker.
pub struct FrontShared {
    pub(crate) cfg: NetConfig,
    conns: RwLock<HashMap<u64, ConnHandle>>,
    next_conn: AtomicU64,
    shutdown: AtomicBool,
    accepted: AtomicU64,
    responses_dropped: AtomicU64,
    slow_consumer_pauses: AtomicU64,
    /// Server-lifetime frame totals: per-connection counters die with
    /// their connection, these keep the running sum.
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    counters: FrontCounters,
}

impl FrontShared {
    /// A front door with no connections yet.
    pub fn new(cfg: NetConfig, counters: FrontCounters) -> Arc<FrontShared> {
        Arc::new(FrontShared {
            cfg,
            conns: RwLock::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            responses_dropped: AtomicU64::new(0),
            slow_consumer_pauses: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            counters,
        })
    }

    /// Best-effort delivery into `conn`'s response queue from any thread.
    /// A full queue or a connection that is gone drops the response and
    /// counts it in [`NetStats::responses_dropped`].
    pub fn deliver(&self, conn: u64, resp: Response) {
        let conns = self.conns.read().expect("front lock");
        if !conns.get(&conn).is_some_and(|h| h.out.push(&resp, true)) {
            self.note_dropped();
        }
    }

    /// [`FrontShared::deliver`] for a run of `frames` already-encoded
    /// response frames, back to back in `chunk` — one table read and one
    /// queue lock for the lot. The queue keeps the leading frames it has
    /// room for; the rest (all of them, if the connection is gone) are
    /// counted in [`NetStats::responses_dropped`].
    pub fn deliver_chunk(&self, conn: u64, chunk: BytesMut, frames: usize) {
        let conns = self.conns.read().expect("front lock");
        let dropped = conns.get(&conn).map_or(frames, |h| h.out.push_run(chunk, frames, true));
        self.count_dropped(dropped);
    }

    /// Counts a response that had no connection to go to.
    pub fn note_dropped(&self) {
        self.count_dropped(1);
    }

    /// Counts `frames` responses that were not queued.
    pub(crate) fn count_dropped(&self, frames: usize) {
        self.responses_dropped.fetch_add(frames as u64, Ordering::Relaxed);
    }

    /// Adjusts `conn`'s live-trip count (no-op once the connection is
    /// gone — its count dies with the handle). Decrements saturate:
    /// every decrement is paired with one successful claim removal, but
    /// saturation keeps a logic slip from wrapping the counter and
    /// pinning the connection unreapable forever.
    pub(crate) fn bump_live(&self, conn: u64, up: bool) {
        let conns = self.conns.read().expect("front lock");
        if let Some(h) = conns.get(&conn) {
            if up {
                h.live_trips.fetch_add(1, Ordering::Relaxed);
            } else {
                let _ = h
                    .live_trips
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
            }
        }
    }

    /// Asks every [`FrontDoor`] over this table to stop at its next tick
    /// (pair with a source wake; [`FrontListener::stop`] does both).
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Point-in-time counters. `backpressure_replies` is the one field
    /// the door cannot know (it counts engine bounces); it reads 0 here.
    pub fn stats(&self) -> NetStats {
        NetStats {
            connections_accepted: self.accepted.load(Ordering::Relaxed),
            connections_open: self.conns.read().expect("front lock").len() as u64,
            responses_dropped: self.responses_dropped.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            backpressure_replies: 0,
            malformed_frames: self.counters.malformed.get(),
            slow_consumer_pauses: self.slow_consumer_pauses.load(Ordering::Relaxed),
            throttled_replies: self.counters.throttled.get(),
            idle_reaped: self.counters.idle_reaped.get(),
            conns_rejected: self.counters.conns_rejected.get(),
        }
    }

    /// Per-connection frame counters for every connection currently open,
    /// sorted by connection id (accept order).
    pub fn connection_stats(&self) -> Vec<ConnectionStats> {
        let conns = self.conns.read().expect("front lock");
        let mut out: Vec<ConnectionStats> = conns
            .iter()
            .map(|(&conn_id, handle)| ConnectionStats {
                conn_id,
                frames_in: handle.counters.frames_in.load(Ordering::Relaxed),
                frames_out: handle.counters.frames_out.load(Ordering::Relaxed),
                backpressure_replies: handle.counters.backpressure_replies.load(Ordering::Relaxed),
                malformed_frames: handle.counters.malformed_frames.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by_key(|s| s.conn_id);
        out
    }
}

/// What [`FrontDoor::poll`] saw on the connections, in arrival order.
#[derive(Debug)]
pub enum FrontEvent {
    /// One request frame arrived and decoded.
    Frame {
        /// The connection it arrived on.
        conn: u64,
        /// The decoded request.
        req: Request,
        /// When decoding started (the frame's bytes were in memory).
        started: Instant,
        /// Nanoseconds spent decoding (socket wait excluded).
        decode_ns: u64,
    },
    /// The connection's read side is finished: a clean EOF or a transport
    /// failure (`None`), or bytes that are not a frame (`Some`). Frames
    /// reported before it are valid. The server flushes what it holds for
    /// the connection, then answers with [`FrontDoor::hangup`].
    Hangup(u64, Option<FrameError>),
    /// Readiness for a key that is not one of the door's connections: a
    /// transport the server registered itself through
    /// [`FrontDoor::source_mut`] — or a connection reaped earlier this
    /// tick, which the server tells apart by how it numbers its keys.
    Foreign(Readiness),
}

/// A connection as its event worker sees it: the nonblocking transport
/// state machine plus throttle bookkeeping.
struct WorkerConn<T> {
    conn: Conn<T>,
    out: Arc<Outbound>,
    counters: Arc<ConnCounters>,
    /// Interest currently registered with the source.
    interest: Interest,
    /// Reads paused: write backlog crossed the high-water mark.
    paused: bool,
    /// Reads paused: the rate-limit token bucket is overdrawn (a second,
    /// independent pause reason — either alone keeps reads off).
    throttled: bool,
    /// No more reads ever; flush the remaining backlog, then close.
    closing: bool,
    /// The one-per-pause-episode slow-consumer notice was queued.
    notice_sent: bool,
    /// Rate-limit token bucket (meaningful only when
    /// [`NetConfig::rate_limit_segments_per_s`] is on). Goes negative
    /// when a tick's already-decoded frames overdraw it — those events
    /// are admitted anyway; the deficit prices the pause.
    tokens: f64,
    /// When the bucket last refilled (consume-time and sweep-time).
    last_refill: Instant,
    /// When this connection last decoded a request frame (or was
    /// adopted) — the idle reaper's clock.
    last_activity: Instant,
    /// Shared with the connection's [`ConnHandle`]: trips currently
    /// routed here. The idle reaper only fires at zero.
    live_trips: Arc<AtomicU64>,
}

impl<T: Read + Write> WorkerConn<T> {
    /// Whether reads are currently gated off for any reason.
    fn reads_off(&self) -> bool {
        self.paused || self.throttled || self.closing
    }

    /// Whether sweep must revisit this connection next tick even without
    /// fresh I/O on it (it holds state that only settles over time).
    fn sticky(&self) -> bool {
        self.paused || self.throttled || self.closing || self.conn.wants_write()
    }
}

/// One event worker's share of the front door: its connections, their
/// transports, and the readiness source. See the module docs for the
/// tick protocol. Production uses `FrontDoor<PollSource, TcpStream>`.
pub struct FrontDoor<S, T> {
    shared: Arc<FrontShared>,
    source: S,
    conns: HashMap<u64, WorkerConn<T>>,
    dirty: Arc<Mutex<Vec<u64>>>,
    wake: Arc<dyn Fn() + Send + Sync>,
    readiness: Vec<Readiness>,
    /// The source reported its schedule exhausted: the tick in progress
    /// is the last one.
    exhausted: bool,
    /// Connections touched this tick (serviced, adopted, or drained) —
    /// the sweep visits these instead of scanning every connection.
    touched: Vec<u64>,
    /// Connections in a state that must be revisited every tick until it
    /// settles (paused, throttled, closing, or holding a write backlog).
    /// Sweep membership = touched ∪ sticky, which keeps the per-tick cost
    /// proportional to *active* connections: hundreds of idle ones do not
    /// tax every tick.
    sticky: HashSet<u64>,
    /// Count of connections in a throttle episode — while nonzero the
    /// wait is bounded so token refill (a time-driven event) gets ticks
    /// even when no I/O arrives.
    throttled_conns: usize,
    /// Next time the (amortised) idle scan walks all connections.
    next_idle_scan: Instant,
    /// Connections the door itself closed since the last
    /// [`FrontDoor::finish_tick`] return.
    lost: Vec<u64>,
    /// Reads paused on every connection: the server cannot take frames
    /// ([`FrontDoor::hold_reads`]). A third pause reason beside a
    /// connection's own `paused` and `throttled`; never counted as a
    /// slow-consumer pause.
    read_hold: bool,
}

impl<S: EventSource<T>, T: Read + Write> FrontDoor<S, T> {
    /// Wraps a readiness source around a connection table. Connections
    /// arrive through [`EventSource::accept_injected`].
    pub fn new(shared: Arc<FrontShared>, source: S) -> FrontDoor<S, T> {
        let wake = source.wake_handle();
        FrontDoor {
            shared,
            source,
            conns: HashMap::new(),
            dirty: Arc::new(Mutex::new(Vec::new())),
            wake,
            readiness: Vec::new(),
            exhausted: false,
            touched: Vec::new(),
            sticky: HashSet::new(),
            throttled_conns: 0,
            next_idle_scan: Instant::now(),
            lost: Vec::new(),
            read_hold: false,
        }
    }

    /// The readiness source, for registering transports the server owns
    /// beside the door's connections. Their keys must not collide with
    /// connection ids (which count up from 0); their readiness comes
    /// back as [`FrontEvent::Foreign`]. Also how the server gets the
    /// source's wake handle for threads that queue work for its loop.
    pub fn source_mut(&mut self) -> &mut S {
        &mut self.source
    }

    /// Stops (`true`) or resumes (`false`) reading every connection.
    /// Unlike a slow-consumer pause nobody is told and nothing is
    /// counted: the producers did nothing wrong, the server behind the
    /// door is momentarily unable to take their frames. While held, the
    /// wait is bounded so a holder's deadlines get ticks.
    pub fn hold_reads(&mut self, on: bool) {
        if on != self.read_hold {
            self.read_hold = on;
            // Every connection's desired interest just changed.
            self.touched.extend(self.conns.keys());
        }
    }

    /// How long the next wait may block: unbounded unless time-driven
    /// work is pending (idle reaping while connections are open, token
    /// refill while any connection is throttled, a read-hold whose
    /// holder has deadlines).
    fn wait_timeout(&self) -> Option<Duration> {
        const THROTTLE_POLL: Duration = Duration::from_millis(20);
        const IDLE_POLL_MIN: Duration = Duration::from_millis(10);
        const IDLE_POLL_MAX: Duration = Duration::from_secs(1);
        let mut timeout: Option<Duration> = None;
        if self.throttled_conns > 0 || self.read_hold {
            timeout = Some(THROTTLE_POLL);
        }
        if !self.conns.is_empty() {
            if let Some(idle) = self.shared.cfg.idle_timeout {
                let poll = (idle / 4).clamp(IDLE_POLL_MIN, IDLE_POLL_MAX);
                timeout = Some(timeout.map_or(poll, |t| t.min(poll)));
            }
        }
        timeout
    }

    /// Starts a tick: waits for readiness, adopts injected transports,
    /// flushes writable connections and reads every readable one under
    /// its budget, appending what arrived to `events`. Returns the tick's
    /// start (just after the wait), or `None` once the source is
    /// exhausted (scripted schedules) or shutdown was requested — then
    /// call [`FrontDoor::teardown_all`].
    pub fn poll(&mut self, events: &mut Vec<FrontEvent>) -> Option<Instant> {
        if self.exhausted || self.shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let timeout = self.wait_timeout();
        let mut readiness = std::mem::take(&mut self.readiness);
        self.exhausted = !self.source.wait(&mut readiness, timeout).unwrap_or_default();
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let tick_start = Instant::now();
        self.adopt_injected();
        for r in readiness.drain(..) {
            self.service(r, events);
        }
        self.readiness = readiness;
        Some(tick_start)
    }

    /// Adopts transports injected since the last tick, enforcing the
    /// connection quota: a transport over [`NetConfig::max_connections`]
    /// is answered with one typed `ConnLimit` error (best-effort flush)
    /// and closed without ever being registered.
    fn adopt_injected(&mut self) {
        let now = Instant::now();
        let cfg = &self.shared.cfg;
        for io in self.source.accept_injected() {
            let quota = cfg.max_connections;
            if quota > 0 && self.shared.conns.read().expect("front lock").len() >= quota {
                self.shared.counters.conns_rejected.inc();
                // A clean typed refusal, not a silent hangup: the peer
                // learns why before the close. Best-effort — a peer that
                // cannot take one small write just gets the close.
                let mut conn = Conn::new(io, cfg.max_frame_len);
                conn.queue_bytes(&response_to_bytes(&Response::error(
                    ErrorCode::ConnLimit,
                    None,
                    format!("connection quota reached ({quota})"),
                )));
                let _ = conn.flush_writes();
                continue; // dropping the transport closes it
            }
            let id = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
            let conn = Conn::new(io, cfg.max_frame_len);
            let interest = Interest { readable: true, writable: false };
            if self.source.register(id, conn.io(), interest).is_err() {
                // Registration failed: drop the transport (closes it).
                continue;
            }
            let out = Arc::new(Outbound {
                q: Mutex::new(Pending::default()),
                cap: cfg.response_queue,
                dirty: AtomicBool::new(false),
                dirty_list: Arc::clone(&self.dirty),
                wake: Arc::clone(&self.wake),
                worker: std::thread::current().id(),
                conn_id: id,
            });
            let counters = Arc::new(ConnCounters::default());
            let live_trips = Arc::new(AtomicU64::new(0));
            self.shared.accepted.fetch_add(1, Ordering::Relaxed);
            self.shared.conns.write().expect("front lock").insert(
                id,
                ConnHandle {
                    out: Arc::clone(&out),
                    counters: Arc::clone(&counters),
                    live_trips: Arc::clone(&live_trips),
                },
            );
            self.conns.insert(
                id,
                WorkerConn {
                    conn,
                    out,
                    counters,
                    interest,
                    paused: false,
                    throttled: false,
                    closing: false,
                    notice_sent: false,
                    tokens: cfg.burst(),
                    last_refill: now,
                    last_activity: now,
                    live_trips,
                },
            );
            self.touched.push(id);
        }
    }

    /// Handles one readiness report: writes first (freeing backlog may
    /// un-throttle the connection), then budget-limited reads.
    fn service(&mut self, r: Readiness, events: &mut Vec<FrontEvent>) {
        let Some(wc) = self.conns.get(&r.key) else {
            events.push(FrontEvent::Foreign(r));
            return;
        };
        let reads_off = wc.reads_off() || self.read_hold;
        self.touched.push(r.key);
        if r.writable && self.pump(r.key).is_err() {
            self.reap(r.key);
            return;
        }
        if r.readable && !reads_off {
            self.service_read(r.key, events);
        }
    }

    /// Reads and decodes everything the budget allows from one
    /// connection. Frames completed before any error are valid and are
    /// reported first, in arrival order.
    fn service_read(&mut self, id: u64, events: &mut Vec<FrontEvent>) {
        let Some(wc) = self.conns.get_mut(&id) else { return };
        let mut frames = Vec::new();
        let status = wc.conn.read_frames(READ_BUDGET, &mut frames);
        if !frames.is_empty() {
            // Decoded frames are activity: the idle clock restarts.
            wc.last_activity = Instant::now();
        }
        for frame in frames {
            let started = Instant::now();
            match request_from_bytes(frame) {
                Ok(req) => {
                    let decode_ns = started.elapsed().as_nanos() as u64;
                    wc.counters.frames_in.fetch_add(1, Ordering::Relaxed);
                    self.shared.frames_in.fetch_add(1, Ordering::Relaxed);
                    events.push(FrontEvent::Frame { conn: id, req, started, decode_ns });
                }
                Err(e) => {
                    events.push(FrontEvent::Hangup(id, Some(e)));
                    return;
                }
            }
        }
        match status {
            Ok(ReadStatus::WouldBlock) | Ok(ReadStatus::BudgetSpent) => {}
            Ok(ReadStatus::Eof) | Err(RecvError::Io(_)) => {
                events.push(FrontEvent::Hangup(id, None))
            }
            Err(RecvError::Frame(e)) => events.push(FrontEvent::Hangup(id, Some(e))),
        }
    }

    /// Whether `id` is gone or on its way out — frames it sent after the
    /// one that closed it are not handled.
    pub fn is_closing(&self, id: u64) -> bool {
        self.conns.get(&id).is_none_or(|wc| wc.closing)
    }

    /// Queues a reply to `id` unless its response queue is full (`false`:
    /// the client is not reading at all).
    pub fn push(&self, id: u64, resp: Response) -> bool {
        self.conns.get(&id).is_some_and(|wc| wc.out.push(&resp, true))
    }

    /// [`FrontShared::deliver_chunk`] from the worker's own thread — how a
    /// relay passes on frames it received without decoding them. Like
    /// [`FrontDoor::push`] it still reaches a connection that is closing;
    /// like `deliver_chunk` it counts what does not fit (everything, if
    /// the connection is gone) in [`NetStats::responses_dropped`].
    pub fn push_chunk(&self, id: u64, chunk: BytesMut, frames: usize) {
        let dropped = self.conns.get(&id).map_or(frames, |wc| wc.out.push_run(chunk, frames, true));
        self.shared.count_dropped(dropped);
    }

    /// Queues a reply to `id` that must not be dropped (barrier replies,
    /// the error ahead of a hang-up). `false`: the connection is gone.
    pub fn push_always(&self, id: u64, resp: Response) -> bool {
        self.conns.get(&id).map(|wc| wc.out.push(&resp, false)).is_some()
    }

    /// `id`'s per-connection counters.
    pub(crate) fn counters(&self, id: u64) -> Option<&ConnCounters> {
        self.conns.get(&id).map(|wc| &*wc.counters)
    }

    /// Charges one rate-limit token for an admitted ingest event and, on
    /// overdrawing the bucket, starts a throttle episode: reads pause
    /// (the same mechanism as a slow consumer) and the peer gets exactly
    /// one typed `Throttled` error with a `retry_after_ms` hint sized to
    /// the deficit. The event itself is *always* admitted — throttling
    /// shapes when frames are read, never what happens to decoded ones —
    /// so admitted traffic stays bit-identical to an unthrottled run.
    pub fn charge(&mut self, id: u64) {
        let rate = self.shared.cfg.rate_limit_segments_per_s;
        if rate == 0 {
            return;
        }
        let Some(wc) = self.conns.get_mut(&id) else { return };
        let now = Instant::now();
        let refill = now.duration_since(wc.last_refill).as_secs_f64() * rate as f64;
        wc.last_refill = now;
        wc.tokens = (wc.tokens + refill).min(self.shared.cfg.burst()) - 1.0;
        if wc.tokens < 0.0 && !wc.throttled {
            wc.throttled = true;
            self.throttled_conns += 1;
            self.shared.counters.throttled.inc();
            let deficit = -wc.tokens;
            let retry_after_ms = (deficit / rate as f64 * 1000.0).ceil() as u64;
            // One notice per episode, queued behind whatever responses
            // the peer already has in flight (it is reading those — the
            // pause gates its *sends*, not its reads).
            let notice = Response::Error {
                code: ErrorCode::Throttled,
                trip: None,
                retry_after_ms: Some(retry_after_ms.max(1)),
                detail: "ingest rate limit exceeded; reads paused".to_string(),
            };
            wc.out.push(&notice, false);
        }
    }

    /// Hands queued runs to the connection (while its write backlog is
    /// under the high-water mark — so the overshoot is at most one run)
    /// and flushes toward the transport. The runs move as they are: the
    /// transport is written from the bytes the pusher encoded.
    ///
    /// Frames-out counting happens here, at the hand-off, and lives only
    /// in atomics — never in a metrics registry, whose contents must be
    /// reproducible at the moment a `MetricsRequest` is answered.
    pub(crate) fn pump(&mut self, id: u64) -> std::io::Result<()> {
        let highwater = self.shared.cfg.write_highwater;
        let Some(wc) = self.conns.get_mut(&id) else { return Ok(()) };
        loop {
            let mut queued = 0u64;
            while wc.conn.write_backlog() < highwater {
                let Some((run, frames)) = wc.out.pop() else { break };
                wc.conn.queue_run(run);
                queued += frames as u64;
            }
            if queued > 0 {
                wc.counters.frames_out.fetch_add(queued, Ordering::Relaxed);
                self.shared.frames_out.fetch_add(queued, Ordering::Relaxed);
            }
            let drained = wc.conn.flush_writes()?;
            if !drained || wc.out.is_empty() {
                return Ok(());
            }
            // The socket swallowed everything and more is queued: loop.
        }
    }

    /// Ends a tick: flushes connections whose queues got pushes, reaps
    /// idle connections, and sweeps pause/resume, token refill and poller
    /// interest. Returns the connections the door closed on its own since
    /// the last call (idle-reaped, or dropped on a transport failure) —
    /// the server forgets whatever it routes to them.
    pub fn finish_tick(&mut self, tick_start: Instant) -> Vec<u64> {
        self.drain_dirty();
        self.reap_idle(tick_start);
        self.sweep(tick_start);
        std::mem::take(&mut self.lost)
    }

    /// Flushes connections whose outbound queues got pushes since the
    /// last drain.
    fn drain_dirty(&mut self) {
        let dirty = std::mem::take(&mut *self.dirty.lock().expect("dirty list"));
        for id in dirty {
            let Some(wc) = self.conns.get(&id) else { continue };
            // Clear the flag *before* draining: a delivery racing in
            // after the final pop re-marks and re-queues the id.
            wc.out.dirty.store(false, Ordering::Release);
            self.touched.push(id);
            if self.pump(id).is_err() {
                self.reap(id);
            }
        }
    }

    /// Amortised idle scan: when due, reaps every connection that has
    /// decoded no frame for [`NetConfig::idle_timeout`] *and* routes no
    /// in-flight trip — a producer mid-trip is never idle, no matter how
    /// long it pauses between segments, so a live trip's claims are never
    /// dropped. The reaped peer gets a best-effort `IdleTimeout` error
    /// ahead of the close. Scan cost is O(connections) but runs at most
    /// every `idle_timeout / 4`, so it never taxes the per-tick path.
    fn reap_idle(&mut self, now: Instant) {
        let Some(idle) = self.shared.cfg.idle_timeout else { return };
        if now < self.next_idle_scan {
            return;
        }
        self.next_idle_scan = now + (idle / 4).min(Duration::from_secs(1));
        let victims: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, wc)| {
                !wc.closing
                    && wc.live_trips.load(Ordering::Relaxed) == 0
                    && now.duration_since(wc.last_activity) >= idle
            })
            .map(|(&id, _)| id)
            .collect();
        for id in victims {
            self.shared.counters.idle_reaped.inc();
            let notice = "connection idle past the server's idle timeout";
            self.push_always(id, Response::error(ErrorCode::IdleTimeout, None, notice));
            self.close(id);
            self.lost.push(id);
        }
    }

    /// End-of-tick bookkeeping — slow-consumer pause/resume hysteresis,
    /// rate-limit token refill and throttle-episode exit, interest
    /// reconciliation, and reaping drained closing connections — for the
    /// connections that need it: those touched by this tick's I/O plus
    /// the sticky set (paused/throttled/closing/backlogged). Connections
    /// idling in the neutral state are *not* visited, which is what keeps
    /// a 256-connection server from paying a 256-connection scan on every
    /// tick (a neutral connection's desired interest cannot change
    /// without I/O that would have touched it).
    fn sweep(&mut self, now: Instant) {
        let highwater = self.shared.cfg.write_highwater;
        let rate = self.shared.cfg.rate_limit_segments_per_s;
        let burst = self.shared.cfg.burst();
        let mut attention = std::mem::take(&mut self.touched);
        attention.extend(self.sticky.iter().copied());
        let mut visited: HashSet<u64> = HashSet::with_capacity(attention.len());
        for id in attention {
            if !visited.insert(id) {
                continue;
            }
            let Some(wc) = self.conns.get_mut(&id) else {
                self.sticky.remove(&id);
                continue;
            };
            if rate > 0 && wc.throttled {
                // Refill the bucket from elapsed wall time; the episode
                // ends (and reads resume) once the deficit is repaid. The
                // next overdraw starts a fresh episode with a fresh
                // notice.
                let refill = now.duration_since(wc.last_refill).as_secs_f64() * rate as f64;
                wc.last_refill = now;
                wc.tokens = (wc.tokens + refill).min(burst);
                if wc.tokens >= 0.0 {
                    wc.throttled = false;
                    self.throttled_conns -= 1;
                }
            }
            let backlog = wc.conn.write_backlog();
            if !wc.closing {
                if !wc.paused && backlog >= highwater {
                    wc.paused = true;
                    self.shared.slow_consumer_pauses.fetch_add(1, Ordering::Relaxed);
                    if !wc.notice_sent {
                        wc.notice_sent = true;
                        // One typed notice per episode, queued behind the
                        // backlog the client must drain anyway: when it
                        // resumes reading, it learns why its sends
                        // stalled.
                        let notice = "response backlog exceeds write high-water; reads paused";
                        wc.out.push(&Response::error(ErrorCode::Backpressure, None, notice), false);
                    }
                } else if wc.paused && backlog <= highwater / 2 {
                    wc.paused = false;
                    wc.notice_sent = false;
                }
            }
            let outbound_empty = wc.out.is_empty();
            if wc.closing && outbound_empty && !wc.conn.wants_write() {
                self.reap(id);
                continue;
            }
            if wc.sticky() || !outbound_empty {
                self.sticky.insert(id);
            } else {
                self.sticky.remove(&id);
            }
            let desired = Interest {
                readable: !(wc.reads_off() || self.read_hold),
                writable: wc.conn.wants_write() || !outbound_empty,
            };
            if desired != wc.interest {
                if self.source.reregister(id, wc.conn.io(), desired).is_ok() {
                    wc.interest = desired;
                } else {
                    self.reap(id);
                }
            }
        }
    }

    /// The server's answer to [`FrontEvent::Hangup`]: an undecodable
    /// frame is counted and answered with a `BadFrame` error (framing is
    /// lost; tell the peer why), then the connection is
    /// [closed](FrontDoor::close).
    pub fn hangup(&mut self, id: u64, bad_frame: Option<FrameError>) {
        if let Some(e) = bad_frame {
            self.shared.counters.malformed.inc();
            if let Some(wc) = self.conns.get(&id) {
                wc.counters.malformed_frames.fetch_add(1, Ordering::Relaxed);
            }
            self.push_always(id, Response::error(ErrorCode::BadFrame, None, e.to_string()));
        }
        self.close(id);
    }

    /// Stops delivering to (and reading from) `id`; the connection lives
    /// on write-only until its queued responses are flushed, then closes.
    pub fn close(&mut self, id: u64) {
        self.shared.conns.write().expect("front lock").remove(&id);
        if let Some(wc) = self.conns.get_mut(&id) {
            wc.closing = true;
            // Closing connections settle over ticks (flush, then reap):
            // sweep must keep visiting even without fresh I/O on them.
            self.sticky.insert(id);
        }
    }

    /// Drops a connection now: removes it from the table and the source,
    /// and closes the transport. If the server has not heard of the loss
    /// yet (the connection was not already closing) it is noted for
    /// [`FrontDoor::finish_tick`]'s return.
    fn reap(&mut self, id: u64) {
        self.shared.conns.write().expect("front lock").remove(&id);
        self.sticky.remove(&id);
        let Some(wc) = self.conns.remove(&id) else { return };
        if wc.throttled {
            self.throttled_conns -= 1;
        }
        let _ = self.source.deregister(id, wc.conn.io());
        // Dropping the transport closes it.
        if !wc.closing {
            self.lost.push(id);
        }
    }

    /// Shutdown path: best-effort flush of whatever is queued, then close
    /// everything.
    pub fn teardown_all(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let _ = self.pump(id);
            self.reap(id);
        }
    }
}

/// The production wiring of a front door: one acceptor thread dealing
/// accepted sockets round-robin to `NetConfig::resolved_workers` event
/// workers, each running the server's tick loop over its own
/// `FrontDoor<PollSource, TcpStream>`.
pub struct FrontListener {
    shared: Arc<FrontShared>,
    local_addr: SocketAddr,
    wakers: Vec<PollWaker>,
    threads: Vec<JoinHandle<()>>,
}

impl FrontListener {
    /// Starts the acceptor (thread name `acceptor_name`) and the workers
    /// (`"{worker_name}-{i}"`); `run` is a worker's whole life — it
    /// returns once [`FrontDoor::poll`] reports shutdown.
    ///
    /// # Errors
    /// The listener's address cannot be read or a poller cannot be
    /// created.
    pub fn spawn(
        listener: TcpListener,
        shared: Arc<FrontShared>,
        worker_name: &str,
        acceptor_name: &str,
        run: impl Fn(FrontDoor<PollSource, TcpStream>) + Clone + Send + 'static,
    ) -> std::io::Result<FrontListener> {
        widen_accept_backlog(&listener);
        let local_addr = listener.local_addr()?;
        let sources = (0..shared.cfg.resolved_workers())
            .map(|_| PollSource::new())
            .collect::<std::io::Result<Vec<_>>>()?;
        let wakers: Vec<PollWaker> = sources.iter().map(PollSource::waker).collect();
        let mut threads = Vec::with_capacity(sources.len() + 1);
        for (i, source) in sources.into_iter().enumerate() {
            let door = FrontDoor::new(Arc::clone(&shared), source);
            let run = run.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{worker_name}-{i}"))
                    .spawn(move || run(door))
                    .expect("spawn event worker"),
            );
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            let wakers = wakers.clone();
            std::thread::Builder::new()
                .name(acceptor_name.to_string())
                .spawn(move || accept_loop(listener, shared, wakers))
                .expect("spawn acceptor")
        };
        threads.push(acceptor);
        Ok(FrontListener { shared, local_addr, wakers, threads })
    }

    /// The address the front door is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signals and joins the acceptor and every worker (idempotent).
    pub fn stop(&mut self) {
        self.shared.request_shutdown();
        // Unblock the acceptor's blocking accept with a throwaway
        // connection; it re-checks the flag per iteration.
        let _ = TcpStream::connect(self.local_addr);
        for waker in &self.wakers {
            waker.wake();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Re-issues `listen(2)` on an already-listening socket to request a
/// deeper accept queue than the `std` default of 128 ([`TcpListener`]
/// exposes no backlog parameter). On Linux a second `listen` on a
/// listening socket just updates the backlog, and the kernel clamps the
/// request to `somaxconn` — so this is best-effort by construction and
/// the return value is deliberately ignored. See [`ACCEPT_BACKLOG`] for
/// why it matters.
fn widen_accept_backlog(listener: &TcpListener) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    // SAFETY: `listen` on a valid listening fd mutates only kernel-side
    // socket state; the fd stays owned by `listener`.
    unsafe {
        let _ = listen(listener.as_raw_fd(), ACCEPT_BACKLOG);
    }
}

/// Accepts connections and deals them round-robin to the event workers
/// (a worker adopts its share at the next tick).
fn accept_loop(listener: TcpListener, shared: Arc<FrontShared>, wakers: Vec<PollWaker>) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        wakers[next % wakers.len()].inject(stream);
        next += 1;
    }
}
