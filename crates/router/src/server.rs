//! The router tier's front door and fan-in core: a TCP server speaking
//! the same `TADN` protocol as a single `tad-net` backend, multiplexing
//! every producer's trips across the backend fleet and routing each reply
//! back to the connection that owns the trip.
//!
//! ## Data flow
//!
//! ```text
//!                 ┌──── front worker: one tad_net::FrontDoor tick ────┐
//! producers ─TADN─▶ read + decode ─▶ partition map ─▶ link channel ───┼─▶ backend mux ─▶ tad-net
//!    ▲            │   Flush / Snapshot / Metrics: barrier over the map│     (one thread,    server
//!    │            │                                                   │      every link)      │
//!    └── sockets ◀┼── drain dirty per-conn response queues ◀──────────┤                       │
//!                 └───────────────────────────────────────────────────┘                       ▼
//!                       per-conn queue ◀── fan-in (Core, on the mux thread) ◀── backend replies
//! ```
//!
//! The producer side runs on the same readiness core as a `tad-net`
//! server ([`tad_net::FrontDoor`]: a fixed pool of event workers, bounded
//! per-connection response queues, slow-consumer pause/resume); this
//! module supplies what happens to a decoded frame. A forward can block
//! its worker — at the topology gate during a failover or handoff, or on
//! a full link channel — and while it does, the other connections of that
//! worker wait too (see `docs/ARCHITECTURE.md`).
//!
//! **Stickiness**: a trip's partition is the pure function
//! [`crate::backend_for`] over the *number of partitions*, and the
//! [`PartitionMap`] says which backend link currently serves each
//! partition. Every event of a trip reaches the same backend engine and
//! per-trip event order is preserved end to end (one connection is read
//! by one front worker, in arrival order → per-backend FIFO channel → one
//! TCP connection → the backend's own ordered ingest). That is what makes
//! routed scoring bit-identical to a single in-process engine.
//!
//! **Barriers**: a front `Flush` fans out to every mapped live backend
//! and replies with [`FleetSnapshot::merged`] aggregate stats only after
//! all of them answered — and because each backend's `Stats` follows all
//! of its earlier replies on the same connection, the aggregate reply is
//! queued after every response caused by events the producer sent first:
//! the single-server quiesce contract, fleet-wide. `SnapshotRequest`
//! works the same way and replies with the [`FleetImage::merge`] of
//! every backend's capture, ready for [`crate::split_image`] onto a
//! fleet of a different size.
//!
//! ## The availability tier
//!
//! With standby backends ([`RouterServerBuilder::standby`]) the router
//! keeps a bounded **recovery journal** per active link: the last
//! checkpointed [`FleetImage`] of that backend (maintained cheaply by
//! [`RouterServer::checkpoint`], which prefers `TADD` delta captures
//! over full images once the backend's chain is armed) plus every ingest
//! frame forwarded since the checkpoint cut. When an active link dies,
//! the router promotes a standby: it installs the journal base image,
//! replays the journaled tail (chunked, with flush fences so replay can
//! never overflow the backend's ingest queue), and atomically flips the
//! partition map. Scores the producers already received are suppressed
//! by a per-trip delivered high-water mark, so the stream each producer
//! observes is **bit-identical** to an uninterrupted run — every score
//! exactly once, in order.
//!
//! [`RouterServer::handoff`] and [`RouterServer::rebalance`] use the
//! same machinery deliberately: drain the source engine's live sessions
//! (no completions fired), install them on the target, flip the map.
//! In-flight frames are held at a write-preferring gate and released in
//! per-trip order afterwards, so a migration is invisible to producers.
//!
//! **Failure without a standby** keeps the old contract: a dead backend
//! fails in-flight barriers and surfaces a typed
//! [`ErrorCode::EngineClosed`] error to every front connection with a
//! live trip on it; trips on healthy backends keep scoring.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tad_metrics::{Counter, Histogram, MetricsSnapshot, Registry};
use tad_net::{
    ErrorCode, FrontCounters, FrontDoor, FrontEvent, FrontListener, FrontShared, NetConfig,
    PollSource, Request, Response, DEFAULT_MAX_FRAME,
};
use tad_serve::{image_from_bytes, image_to_bytes, FleetImage, FleetSnapshot, TripId};

use crate::backend::{backend_mux, BackendMsg, LinkSender, MuxLink, Pending, PendingEntry};
use crate::journal::Journal;
use crate::partition::{backend_for, split_image};

/// Tunables of the router tier (each backend engine has its own
/// [`tad_serve::FleetConfig`] behind its own `tad-net` server).
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Cap on one frame's payload length, applied to front requests and
    /// backend responses alike. Backend `Snapshot` replies of very large
    /// fleets may need a higher cap on every hop. Defaults to
    /// [`DEFAULT_MAX_FRAME`] (64 MiB).
    pub max_frame_len: usize,
    /// Bound of each front connection's outgoing response queue. A
    /// producer that stops draining loses responses beyond this (counted
    /// in [`RouterStats::responses_dropped`]) instead of growing router
    /// memory — including barrier replies, so a non-reading producer's
    /// `flush()` eventually times out client-side rather than wedging the
    /// router. Long after that, once 1 KiB × this many reply bytes sit
    /// unflushed behind its socket, the router also stops reading its
    /// requests (the `tad-net` slow-consumer pause,
    /// [`NetConfig::write_highwater`]) until it drains.
    pub response_queue: usize,
    /// Bound of each backend's forwarding channel. A saturated backend
    /// back-pressures the front workers that route to it (the
    /// engine-level `Backpressure` contract still comes from the backend
    /// itself).
    pub backend_queue: usize,
    /// Cap on each link's recovery journal, in frames. A journal that
    /// would exceed this is discarded (the link stops being recoverable
    /// until the next [`RouterServer::checkpoint`] re-bases it) rather
    /// than growing without bound — size it to the expected ingest volume
    /// of one checkpoint interval. Only meaningful with standbys.
    pub journal_limit: usize,
    /// How long a producer's ingest frame may wait out a failover before
    /// the router gives up and surfaces a typed `EngineClosed` error.
    /// Only meaningful with standbys; without them dead backends answer
    /// immediately.
    pub failover_wait: Duration,
    /// Set `TCP_NODELAY` on accepted and backend sockets.
    pub nodelay: bool,
    /// Kernel accept-queue depth requested for the front listening
    /// socket (default 1024, capped by the OS `somaxconn`; `0` keeps the
    /// platform default, typically 128). See
    /// [`NetConfig::accept_backlog`] for why the 128-slot default stalls
    /// connect storms of a few hundred producers.
    pub accept_backlog: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_frame_len: DEFAULT_MAX_FRAME,
            response_queue: 65_536,
            backend_queue: 65_536,
            journal_limit: 8_192,
            failover_wait: Duration::from_secs(10),
            nodelay: true,
            accept_backlog: 1024,
        }
    }
}

/// Why the router could not be built or bound.
#[derive(Debug)]
pub enum RouterError {
    /// Binding or configuring the front listening socket failed.
    Io(std::io::Error),
    /// The builder was given no backend addresses.
    NoBackends,
    /// Connecting to one of the backends (active or standby) failed.
    BackendConnect {
        /// Index of the backend in the builder's combined list (actives
        /// first, then standbys).
        index: usize,
        /// The underlying socket failure.
        error: std::io::Error,
    },
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Io(e) => write!(f, "socket error: {e}"),
            RouterError::NoBackends => write!(f, "a router needs at least one backend address"),
            RouterError::BackendConnect { index, error } => {
                write!(f, "cannot connect to backend {index}: {error}")
            }
        }
    }
}

impl std::error::Error for RouterError {}

impl From<std::io::Error> for RouterError {
    fn from(e: std::io::Error) -> Self {
        RouterError::Io(e)
    }
}

/// Why a router-driven admin operation ([`RouterServer::checkpoint`],
/// [`RouterServer::handoff`], [`RouterServer::rebalance`]) failed.
#[derive(Debug)]
pub enum RouterAdminError {
    /// The operation needed a standby backend and the pool is empty.
    NoStandby,
    /// [`RouterServer::handoff`] was asked to move a partition the map
    /// does not have.
    NoSuchPartition {
        /// The requested partition.
        partition: u32,
        /// How many partitions the map currently has.
        partitions: u32,
    },
    /// The requested topology is impossible (e.g. rebalancing to zero
    /// partitions).
    InvalidTopology(&'static str),
    /// A backend refused or failed mid-operation.
    Backend {
        /// The link index of the failing backend.
        backend: u32,
        /// What went wrong, as reported on the wire or by the link.
        detail: String,
    },
}

impl std::fmt::Display for RouterAdminError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterAdminError::NoStandby => write!(f, "no standby backend available"),
            RouterAdminError::NoSuchPartition { partition, partitions } => {
                write!(f, "partition {partition} does not exist (map has {partitions})")
            }
            RouterAdminError::InvalidTopology(why) => write!(f, "invalid topology: {why}"),
            RouterAdminError::Backend { backend, detail } => {
                write!(f, "backend {backend}: {detail}")
            }
        }
    }
}

impl std::error::Error for RouterAdminError {}

/// What one [`RouterServer::checkpoint`] sweep captured per backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckpointStats {
    /// Backends that served a full `TADF` image this sweep.
    pub full_captures: u64,
    /// Backends that served an incremental `TADD` delta this sweep —
    /// the steady state once every chain is armed.
    pub delta_captures: u64,
}

/// What a completed [`RouterServer::handoff`] or
/// [`RouterServer::rebalance`] moved.
#[derive(Clone, Copy, Debug)]
pub struct HandoffStats {
    /// Live sessions delivered into their new backend(s).
    pub sessions_moved: u64,
    /// The partition-map epoch after the flip.
    pub epoch: u64,
}

/// Point-in-time counters of the router tier (per-backend engine counters
/// travel in the aggregated `Stats` reply to a front `Flush`).
#[derive(Clone, Copy, Debug)]
pub struct RouterStats {
    /// Front connections accepted since the router started.
    pub fronts_accepted: u64,
    /// Front connections currently open.
    pub fronts_open: u64,
    /// Responses dropped because the owning front connection's queue was
    /// full, the connection was gone, or no connection owned the trip.
    pub responses_dropped: u64,
    /// Backend links the router was built over (actives plus standbys).
    pub backends_total: u64,
    /// Backend links whose connection is still healthy.
    pub backends_alive: u64,
    /// Standby backends currently available for promotion.
    pub standbys_available: u64,
    /// Completed standby promotions since the router started.
    pub failovers: u64,
    /// Wall-clock duration of the most recent completed failover, in
    /// microseconds (0 if none happened yet).
    pub last_recovery_micros: u64,
    /// The partition map's epoch: bumped by every failover flip, handoff,
    /// and rebalance.
    pub partition_epoch: u64,
}

/// Where a live trip's events go and who gets its replies.
struct TripRoute {
    /// The front connection that owns the trip's responses.
    conn: u64,
    /// The backend link currently serving the trip's partition. Updated
    /// at every map flip; atomic so flips need only a read lock on the
    /// routing table.
    backend: AtomicU32,
    /// Events forwarded after the claim was created — 0 means the claim
    /// is start-only, so a refused/bounced `TripStart` can release it
    /// without stranding the id. Atomic so the per-segment bump needs
    /// only a read lock on the routing table.
    forwarded: AtomicU32,
    /// Delivered-score high-water mark: `seq + 1` of the last `Score`
    /// delivered to the front connection. During journal replay this is
    /// what separates duplicates (suppressed) from scores the producer
    /// never saw (delivered) — the exactly-once guarantee.
    delivered: AtomicU32,
    /// True while the trip's backend is being failed over; gates the
    /// replay suppression logic.
    replaying: AtomicBool,
}

impl TripRoute {
    fn new(conn: u64, backend: u32) -> Self {
        TripRoute {
            conn,
            backend: AtomicU32::new(backend),
            forwarded: AtomicU32::new(0),
            delivered: AtomicU32::new(0),
            replaying: AtomicBool::new(false),
        }
    }
}

/// What a pending fleet-wide barrier is waiting to answer.
#[derive(Clone, Copy)]
pub(crate) enum BarrierKind {
    /// A front `Flush` waiting on merged `Stats`.
    Flush,
    /// A front `SnapshotRequest` waiting on a merged image.
    Snapshot,
    /// A front `MetricsRequest` waiting on merged registries.
    Metrics,
}

impl BarrierKind {
    /// The frame that opens this barrier on a backend.
    fn frame(self) -> Request {
        match self {
            BarrierKind::Flush => Request::Flush,
            BarrierKind::Snapshot => Request::SnapshotRequest,
            BarrierKind::Metrics => Request::MetricsRequest,
        }
    }
}

/// Which backend link serves each partition, and a flip counter.
///
/// A trip's partition is `backend_for(id, slots.len())`; `slots[k]` is
/// the link index currently serving partition `k`. The slots are always
/// distinct links. `epoch` bumps on every flip (failover, handoff,
/// rebalance), which makes "did the topology change under me" a cheap
/// question for tests and operators.
struct PartitionMap {
    epoch: u64,
    slots: Vec<u32>,
}

/// The router's handle on one backend connection.
pub(crate) struct BackendLink {
    /// False once the connection failed; checked before forwarding.
    alive: AtomicBool,
    /// Feed of the backend mux's per-link forwarding channel (send +
    /// poller wake).
    tx: LinkSender,
    /// Requests in flight on this connection that expect trip-less
    /// replies, in wire order.
    pub(crate) pending: Pending,
    /// Serializes admin staging (exclusive) against journaled ingest
    /// sends (shared), so pending-queue order always equals wire order
    /// and a checkpoint cut lands at exactly the wire position of its
    /// capture frame.
    stage: RwLock<()>,
    /// This link's recovery journal.
    journal: Mutex<Journal>,
    /// True while this link is the *target* of a journal replay; gates
    /// suppression of replay-induced replies that have no route (e.g.
    /// completions of trips that finished pre-crash).
    replaying: AtomicBool,
    /// Ensures the heavyweight half of the down path (failover spawn or
    /// route sweep) runs exactly once however often the down path runs.
    down_handled: AtomicBool,
    /// A handle on the socket for shutdown wake-ups.
    pub(crate) stream: TcpStream,
}

impl BackendLink {
    /// Stages barrier `bid` and sends its frame, atomically with respect
    /// to other admin frames on this link (the stage write lock):
    /// pending-queue order therefore equals channel order equals wire
    /// order, and the barrier is in the queue from the moment the channel
    /// accepts it — so the backend-down sweep always sees it and can fail
    /// or restage it. Forwarded ingest frames interleave freely; only
    /// admin-to-admin order matters for the queue. `false`: the link is
    /// gone and the stage was undone.
    fn stage_barrier(&self, kind: BarrierKind, bid: u64) -> bool {
        let _stage = self.stage.write().expect("stage lock");
        self.pending.push(PendingEntry::Barrier(kind, bid));
        if self.tx.send(BackendMsg::Forward(kind.frame())).is_err() {
            // Nobody staged after us (we hold the stage lock), so the
            // entry — if the down sweep has not already consumed it and
            // failed the barrier — is the tail.
            self.pending.unstage_tail(|e| matches!(e, PendingEntry::Barrier(_, b) if *b == bid));
            return false;
        }
        if matches!(kind, BarrierKind::Snapshot) {
            // The backend answers a SnapshotRequest by re-arming its
            // delta chain at an epoch the router never learns: the
            // journal's chain linkage is broken until the next full
            // capture.
            self.journal.lock().expect("journal lock").break_chain();
        }
        true
    }
}

/// Handles into the router's own metrics registry (`router.*`), cached at
/// bind time. These describe the router process itself; a front
/// `MetricsRequest` merges them with every backend's snapshot.
struct RouterMetrics {
    registry: Arc<Registry>,
    /// `router.forward_ns`: time from picking a live backend to its
    /// forwarding channel accepting the frame — dominated by channel wait
    /// when a backend link saturates, so its tail is the router-side
    /// congestion signal.
    forward_ns: Arc<Histogram>,
    /// `router.fanin_depth`: fleet-wide barriers in flight, observed at
    /// each barrier open (including the one being opened).
    fanin_depth: Arc<Histogram>,
    /// `router.failovers`: completed standby promotions.
    failovers: Arc<Counter>,
    /// `router.handoff_sessions`: live sessions moved by handoffs and
    /// rebalances.
    handoff_sessions: Arc<Counter>,
    /// `router.replay_suppressed`: replies swallowed during journal
    /// replay because the producer had already received them (the
    /// duplicate side of the exactly-once ledger).
    replay_suppressed: Arc<Counter>,
    /// `router.recovery_micros`: wall-clock duration of completed
    /// failovers.
    recovery_micros: Arc<Histogram>,
    /// `router.throttled`: trip-scoped `Throttled` refusals fanned back
    /// in from any backend — the fleet-wide overload signal as seen at
    /// the router.
    throttled: Arc<Counter>,
    /// `router.backend.N.forward_ns`: the per-link split of
    /// `forward_ns`, same clock.
    per_backend: Vec<Arc<Histogram>>,
    /// `router.backend.N.throttled`: the per-link split of
    /// `router.throttled` — which backend is shedding.
    per_backend_throttled: Vec<Arc<Counter>>,
}

impl RouterMetrics {
    fn register(num_links: usize) -> Self {
        let registry = Arc::new(Registry::new());
        RouterMetrics {
            forward_ns: registry.histogram("router.forward_ns"),
            fanin_depth: registry.histogram("router.fanin_depth"),
            failovers: registry.counter("router.failovers"),
            handoff_sessions: registry.counter("router.handoff_sessions"),
            replay_suppressed: registry.counter("router.replay_suppressed"),
            recovery_micros: registry.histogram("router.recovery_micros"),
            throttled: registry.counter("router.throttled"),
            per_backend: (0..num_links)
                .map(|idx| registry.histogram(&format!("router.backend.{idx}.forward_ns")))
                .collect(),
            per_backend_throttled: (0..num_links)
                .map(|idx| registry.counter(&format!("router.backend.{idx}.throttled")))
                .collect(),
            registry,
        }
    }
}

/// One fleet-wide barrier in flight: a front `Flush`/`SnapshotRequest`
/// fanned out to every mapped live backend, collecting one contribution
/// (a reply or a failure) per backend before answering the front
/// connection.
struct Barrier {
    kind: BarrierKind,
    conn: u64,
    /// False until the fan-out loop knows how many backends accepted the
    /// frame; contributions arriving earlier just accumulate.
    sealed: bool,
    expected: usize,
    got: usize,
    stats: Vec<FleetSnapshot>,
    images: Vec<(u32, Bytes)>,
    metrics: Vec<MetricsSnapshot>,
    failed: Option<(ErrorCode, String)>,
}

/// The router's shared state: backend links, the partition map, front
/// registry, trip routing table, and in-flight barriers.
pub(crate) struct Core {
    links: Vec<BackendLink>,
    /// Which link serves each partition. RwLock: the hot forward path
    /// only reads it; failover/handoff flips take the write lock for the
    /// duration of a pointer swap.
    map: RwLock<PartitionMap>,
    /// Standby links available for promotion, in builder order.
    standbys: Mutex<Vec<u32>>,
    /// True when the router was built with standbys: journals record,
    /// forwards ride out failovers, and dead actives are promoted over.
    journaling: bool,
    failover_wait: Duration,
    /// The topology gate. Forwards and front barriers hold it shared for
    /// the duration of one send pass; failover and handoff hold it
    /// exclusive across capture→install→flip, so no producer frame can
    /// slip between a drain and its map flip.
    gate: RwLock<()>,
    /// Serializes router-driven admin operations (checkpoint sweeps,
    /// handoffs, rebalances) against each other.
    admin: Mutex<()>,
    /// True once shutdown starts: backend deaths stop spawning recovery.
    closing: AtomicBool,
    recovery_threads: Mutex<Vec<JoinHandle<()>>>,
    failovers: AtomicU64,
    last_recovery_micros: AtomicU64,
    /// The producer side's connection table: fan-in delivers into it, and
    /// it counts accepted/open connections and dropped responses.
    front: Arc<FrontShared>,
    /// Trip routing table. RwLock, not Mutex: the hot per-segment paths
    /// (forwarding an event, fanning a `Score` back in) only read it, so
    /// front workers and the backend mux don't serialize on the map.
    trips: RwLock<HashMap<TripId, TripRoute>>,
    barriers: Mutex<HashMap<u64, Barrier>>,
    next_barrier: AtomicU64,
    metrics: RouterMetrics,
}

impl Core {
    fn new(
        links: Vec<BackendLink>,
        actives: usize,
        cfg: &RouterConfig,
        front: Arc<FrontShared>,
    ) -> Self {
        let metrics = RouterMetrics::register(links.len());
        let standbys: Vec<u32> = (actives as u32..links.len() as u32).collect();
        Core {
            map: RwLock::new(PartitionMap { epoch: 0, slots: (0..actives as u32).collect() }),
            journaling: !standbys.is_empty(),
            standbys: Mutex::new(standbys),
            failover_wait: cfg.failover_wait,
            gate: RwLock::new(()),
            admin: Mutex::new(()),
            closing: AtomicBool::new(false),
            recovery_threads: Mutex::new(Vec::new()),
            failovers: AtomicU64::new(0),
            last_recovery_micros: AtomicU64::new(0),
            links,
            front,
            trips: RwLock::new(HashMap::new()),
            barriers: Mutex::new(HashMap::new()),
            next_barrier: AtomicU64::new(0),
            metrics,
        }
    }

    /// Frees a closed front connection's routing claims so a reconnecting
    /// producer can re-attach to its trips (the backend sessions live on
    /// until they end or their TTL reaps them).
    fn unroute_front(&self, conn: u64) {
        self.trips.write().expect("trips lock").retain(|_, route| route.conn != conn);
    }

    /// A response had no front connection to go to — unless link `idx` is
    /// the target of a journal replay, where a reply for a trip whose
    /// route is long gone (it completed pre-crash) is expected.
    fn unrouted(&self, idx: u32) {
        if self.links[idx as usize].replaying.load(Ordering::Relaxed) {
            self.suppressed();
        } else {
            self.front.note_dropped();
        }
    }

    fn suppressed(&self) {
        self.metrics.replay_suppressed.add(1);
    }

    /// Resolves a pending entry that will never get its reply.
    fn fail_entry(&self, entry: PendingEntry, code: ErrorCode, detail: String) {
        match entry {
            PendingEntry::Barrier(_, bid) => self.contribute(bid, |b| {
                b.failed.get_or_insert((code, detail));
            }),
            PendingEntry::Admin { reply, .. } => {
                let _ = reply.try_send(Err(detail));
            }
        }
    }

    /// A trip-less reply arrived that does not answer the entry at the
    /// head of the link's pending queue: the reply stream is
    /// desynchronized (a protocol fault, not an expected state). Fail
    /// the mismatched entry loudly rather than mis-attributing replies.
    fn desync(&self, entry: PendingEntry) {
        self.front.note_dropped();
        self.fail_entry(
            entry,
            ErrorCode::EngineClosed,
            "backend reply stream desynchronized".to_string(),
        );
    }

    /// Fan-in: one frame arrived from backend link `idx`.
    pub(crate) fn on_backend_response(&self, idx: u32, resp: Response) {
        match resp {
            Response::Score(update) => {
                // Fast path: deliver and advance the per-trip delivered
                // high-water mark. During replay the mark is the
                // duplicate filter: anything below it was already
                // delivered pre-crash.
                enum Verdict {
                    Deliver(u64),
                    Duplicate,
                    NoRoute,
                }
                let verdict = {
                    let trips = self.trips.read().expect("trips lock");
                    match trips.get(&update.id) {
                        Some(route) => {
                            if route.replaying.load(Ordering::Relaxed)
                                && update.seq < route.delivered.load(Ordering::Relaxed)
                            {
                                Verdict::Duplicate
                            } else {
                                route.delivered.store(update.seq + 1, Ordering::Relaxed);
                                Verdict::Deliver(route.conn)
                            }
                        }
                        None => Verdict::NoRoute,
                    }
                };
                match verdict {
                    Verdict::Deliver(conn) => self.front.deliver(conn, Response::Score(update)),
                    Verdict::Duplicate => self.suppressed(),
                    Verdict::NoRoute => self.unrouted(idx),
                }
            }
            Response::TripComplete(tc) => {
                // The trip is finished: forget the route so the id can be
                // started again later.
                let conn = self.trips.write().expect("trips lock").remove(&tc.id).map(|r| r.conn);
                match conn {
                    Some(conn) => self.front.deliver(conn, Response::TripComplete(tc)),
                    None => self.unrouted(idx),
                }
            }
            Response::PolicyNotice { id, action, seg } => {
                // Sanitization outcomes are trip-scoped, like scores: fan
                // them in to whichever front connection owns the trip. A
                // replaying route already saw its pre-crash notices, and
                // notices carry no sequence to dedup on, so replay
                // suppresses them wholesale.
                enum Verdict {
                    Deliver(u64),
                    Replaying,
                    NoRoute,
                }
                let verdict = {
                    let trips = self.trips.read().expect("trips lock");
                    match trips.get(&id) {
                        Some(r) if r.replaying.load(Ordering::Relaxed) => Verdict::Replaying,
                        Some(r) => Verdict::Deliver(r.conn),
                        None => Verdict::NoRoute,
                    }
                };
                match verdict {
                    Verdict::Deliver(conn) => {
                        self.front.deliver(conn, Response::PolicyNotice { id, action, seg })
                    }
                    Verdict::Replaying => self.suppressed(),
                    Verdict::NoRoute => self.front.note_dropped(),
                }
            }
            // Every other reply is trip-less and answers the request at the
            // head of the link's pending queue: a router-driven round-trip
            // takes the frame whole, a front barrier takes its payload.
            resp @ (Response::Stats(_)
            | Response::Snapshot { .. }
            | Response::Metrics(_)
            | Response::Delta { .. }
            | Response::Installed { .. }
            | Response::Drained { .. }) => match self.links[idx as usize].pending.pop() {
                Some(PendingEntry::Admin { accepts, reply }) if accepts(&resp) => {
                    let _ = reply.try_send(Ok(resp));
                }
                Some(PendingEntry::Barrier(kind, bid)) => match (kind, resp) {
                    (BarrierKind::Flush, Response::Stats(stats)) => {
                        self.contribute(bid, |b| b.stats.push(stats));
                    }
                    (BarrierKind::Snapshot, Response::Snapshot { image }) => {
                        self.contribute(bid, |b| b.images.push((idx, image)));
                    }
                    (BarrierKind::Metrics, Response::Metrics(snapshot)) => {
                        self.contribute(bid, |b| b.metrics.push(snapshot));
                    }
                    (kind, _) => self.desync(PendingEntry::Barrier(kind, bid)),
                },
                Some(other) => self.desync(other),
                None => self.front.note_dropped(),
            },
            Response::Error { code, trip: Some(id), retry_after_ms, detail } => {
                if matches!(code, ErrorCode::Backpressure | ErrorCode::Throttled) {
                    // The frame made it into the journal but the engine
                    // refused it (backpressure) or shed it (admission
                    // control): the recorded tail no longer matches what
                    // was scored.
                    self.links[idx as usize].journal.lock().expect("journal lock").poison();
                }
                if matches!(code, ErrorCode::Throttled) {
                    // Per-backend throttle accounting: the router is how
                    // a fleet operator sees *which* backend is shedding.
                    self.metrics.throttled.add(1);
                    self.metrics.per_backend_throttled[idx as usize].add(1);
                }
                let found = {
                    let trips = self.trips.read().expect("trips lock");
                    trips.get(&id).map(|r| {
                        (
                            r.conn,
                            r.forwarded.load(Ordering::Relaxed),
                            r.replaying.load(Ordering::Relaxed),
                        )
                    })
                };
                match found {
                    Some((_, _, true)) => {
                        // Replay-induced (e.g. a replayed TripStart for a
                        // session already in the installed image): the
                        // producer never sent this frame post-crash, so
                        // it must not see an error for it.
                        self.suppressed();
                    }
                    Some((conn, forwarded, false)) => {
                        // A refused, bounced, or shed TripStart (nothing
                        // forwarded after the claim) must not strand its
                        // id: the producer will retry it. Error frames are
                        // rare, so the write-lock upgrade (with a
                        // re-check) is off the hot path.
                        if forwarded == 0
                            && matches!(
                                code,
                                ErrorCode::Rejected
                                    | ErrorCode::Backpressure
                                    | ErrorCode::Throttled
                            )
                        {
                            let mut trips = self.trips.write().expect("trips lock");
                            if trips.get(&id).is_some_and(|r| {
                                r.conn == conn && r.forwarded.load(Ordering::Relaxed) == 0
                            }) {
                                trips.remove(&id);
                            }
                        }
                        // `retry_after_ms` rides through untouched: the
                        // producer's pacing hint comes from the backend
                        // that shed the frame.
                        self.front.deliver(
                            conn,
                            Response::Error { code, trip: Some(id), retry_after_ms, detail },
                        );
                    }
                    None => self.front.note_dropped(),
                }
            }
            Response::Error { code, trip: None, retry_after_ms: _, detail } => match code {
                // A trip-less BadFrame/Backpressure/Throttled answers
                // nothing in the pending queue (throttle notices pace the
                // router's own backend link, they do not consume an admin
                // slot); popping here would desynchronize the queue.
                ErrorCode::BadFrame | ErrorCode::Backpressure => self.front.note_dropped(),
                ErrorCode::Throttled => {
                    self.metrics.throttled.add(1);
                    self.metrics.per_backend_throttled[idx as usize].add(1);
                    self.front.note_dropped();
                }
                // SnapshotFailed / EngineClosed / Rejected each answer
                // exactly the admin request at the head of the queue.
                _ => match self.links[idx as usize].pending.pop() {
                    Some(entry) => self.fail_entry(entry, code, detail),
                    None => self.front.note_dropped(),
                },
            },
        }
    }

    /// Sweeps the routing table for a dead backend's trips: remove them
    /// and surface a typed error per trip (the no-standby contract).
    fn fail_routes(&self, idx: u32) {
        let dead: Vec<(TripId, u64)> = {
            let mut trips = self.trips.write().expect("trips lock");
            let dead: Vec<(TripId, u64)> = trips
                .iter()
                .filter(|(_, route)| route.backend.load(Ordering::Relaxed) == idx)
                .map(|(&id, route)| (id, route.conn))
                .collect();
            for (id, _) in &dead {
                trips.remove(id);
            }
            dead
        };
        for (id, conn) in dead {
            let lost = format!("backend {idx} connection lost");
            self.front.deliver(conn, Response::error(ErrorCode::EngineClosed, Some(id), lost));
        }
    }

    /// A backend connection died: the mux runs this when it reaps the
    /// link. The cheap half (mark dead, close the socket, drain staged
    /// entries) is idempotent, and `down_handled` makes the heavyweight
    /// half — spawning a failover, or failing the link's routes — run
    /// exactly once.
    ///
    /// An associated function taking the `Arc` (not a method) because a
    /// recoverable death spawns a recovery thread that must own a clone
    /// of the core.
    pub(crate) fn backend_down(core: &Arc<Core>, idx: u32) {
        let link = &core.links[idx as usize];
        link.alive.store(false, Ordering::SeqCst);
        // The peer sees the link close even if the fault was on our side.
        let _ = link.stream.shutdown(Shutdown::Both);
        core.standbys.lock().expect("standby pool").retain(|&s| s != idx);
        let entries = link.pending.drain_all();
        let first = !link.down_handled.swap(true, Ordering::SeqCst);
        let in_map = core.map.read().expect("partition map").slots.contains(&idx);
        let recoverable = first
            && in_map
            && core.journaling
            && !core.closing.load(Ordering::SeqCst)
            && link.journal.lock().expect("journal lock").recoverable()
            && !core.standbys.lock().expect("standby pool").is_empty();
        if recoverable {
            // Mark the partition's live trips replaying *before* the
            // recovery thread starts pushing frames, so every
            // replay-induced reply is classified correctly.
            {
                let trips = core.trips.read().expect("trips lock");
                for route in trips.values() {
                    if route.backend.load(Ordering::Relaxed) == idx {
                        route.replaying.store(true, Ordering::Relaxed);
                    }
                }
            }
            // Barriers staged on the dead link move to the promoted
            // backend; everything else (admin channels) fails typed.
            let mut restage = Vec::new();
            for entry in entries {
                match entry {
                    PendingEntry::Barrier(kind, bid) => restage.push((kind, bid)),
                    other => core.fail_entry(
                        other,
                        ErrorCode::EngineClosed,
                        format!("backend {idx} connection lost"),
                    ),
                }
            }
            let thread_core = Arc::clone(core);
            let handle = std::thread::Builder::new()
                .name(format!("tad-router-recover-{idx}"))
                .spawn(move || thread_core.recover(idx, restage))
                .expect("spawn recovery thread");
            core.recovery_threads.lock().expect("recovery threads").push(handle);
            return;
        }
        for entry in entries {
            core.fail_entry(
                entry,
                ErrorCode::EngineClosed,
                format!("backend {idx} connection lost"),
            );
        }
        if first && in_map {
            core.fail_routes(idx);
        }
    }

    /// Pops the next live standby, or `None` when the pool is dry.
    fn take_standby(&self) -> Option<u32> {
        let mut pool = self.standbys.lock().expect("standby pool");
        while !pool.is_empty() {
            let idx = pool.remove(0);
            if self.links[idx as usize].alive.load(Ordering::SeqCst) {
                return Some(idx);
            }
        }
        None
    }

    /// The failover driver, on its own thread. Holds the topology gate
    /// exclusively: producers block (bounded by `failover_wait`) instead
    /// of erroring, and resume against the flipped map.
    fn recover(&self, dead: u32, restage: Vec<(BarrierKind, u64)>) {
        let started = Instant::now();
        let _gate = self.gate.write().expect("topology gate");
        loop {
            let Some(target) = self.take_standby() else {
                self.abandon_recovery(dead, &restage);
                return;
            };
            match self.try_promote(dead, target, &restage) {
                Ok(_moved) => {
                    let micros = started.elapsed().as_micros() as u64;
                    self.metrics.recovery_micros.record(micros);
                    self.last_recovery_micros.store(micros, Ordering::Relaxed);
                    self.failovers.fetch_add(1, Ordering::Relaxed);
                    self.metrics.failovers.add(1);
                    return;
                }
                Err(_) => continue, // next standby, if any
            }
        }
    }

    /// Every standby was tried (or the pool was raced empty): fall back
    /// to the no-standby contract.
    fn abandon_recovery(&self, dead: u32, restage: &[(BarrierKind, u64)]) {
        for &(kind, bid) in restage {
            let detail = format!("backend {dead} connection lost and no standby could take over");
            self.fail_entry(PendingEntry::Barrier(kind, bid), ErrorCode::EngineClosed, detail);
        }
        self.fail_routes(dead);
    }

    /// One promotion attempt: install the dead link's journal base on
    /// `target`, replay the journaled tail (fenced), verify the target
    /// survived, then flip the map and restage the dead link's barriers.
    /// Any failure leaves `target` consumed (it is dead or suspect) and
    /// the caller tries the next standby.
    fn try_promote(
        &self,
        dead: u32,
        target: u32,
        restage: &[(BarrierKind, u64)],
    ) -> Result<u64, String> {
        let (image, frames) = {
            let journal = self.links[dead as usize].journal.lock().expect("journal lock");
            if !journal.recoverable() {
                return Err("journal discarded".to_string());
            }
            (journal.base.image().clone(), journal.frames.clone())
        };
        let moved = self.admin_install(target, image)?;
        let link = &self.links[target as usize];
        link.replaying.store(true, Ordering::SeqCst);
        let replayed = self.replay_frames(target, &frames);
        link.replaying.store(false, Ordering::SeqCst);
        replayed?;
        if !link.alive.load(Ordering::SeqCst) {
            return Err(format!("backend {target} died during replay"));
        }
        // The flip: every partition the dead link served (exactly one,
        // by construction) now points at the promoted backend, and the
        // partition's trips resume normal delivery.
        {
            let mut map = self.map.write().expect("partition map");
            for slot in map.slots.iter_mut() {
                if *slot == dead {
                    *slot = target;
                }
            }
            map.epoch += 1;
        }
        {
            let trips = self.trips.read().expect("trips lock");
            for route in trips.values() {
                if route.backend.load(Ordering::Relaxed) == dead {
                    route.backend.store(target, Ordering::Relaxed);
                    route.replaying.store(false, Ordering::Relaxed);
                }
            }
        }
        // Barriers that were staged on the dead link get their answer
        // from the promoted backend: the replay fence already proved it
        // holds everything those barriers were waiting to cover.
        for &(kind, bid) in restage {
            if !link.stage_barrier(kind, bid) {
                let detail = format!("backend {target} connection lost");
                self.fail_entry(PendingEntry::Barrier(kind, bid), ErrorCode::EngineClosed, detail);
            }
        }
        Ok(moved)
    }

    /// Replays journaled ingest frames onto `target` in chunks, with a
    /// flush fence after each chunk so replay can never outrun the
    /// backend's bounded ingest queue (chunk size < queue capacity per
    /// shard). The frames are re-journaled as they go: the target's own
    /// journal stays faithful for a later failover of the failover.
    fn replay_frames(&self, target: u32, frames: &[Request]) -> Result<(), String> {
        let link = &self.links[target as usize];
        for chunk in frames.chunks(1024) {
            for req in chunk {
                let _stage = link.stage.read().expect("stage lock");
                let sent = link.tx.send(BackendMsg::Forward(req.clone())).is_ok();
                if !sent {
                    return Err(format!("backend {target} died during replay"));
                }
                link.journal.lock().expect("journal lock").record(req);
            }
            self.admin_fence(target)?;
        }
        Ok(())
    }

    /// One staged admin round-trip: check the link is alive, then — under
    /// the stage write lock, so pending-queue order equals wire order —
    /// stage a pending entry, send `frame`, and run `staged` (journal
    /// bookkeeping tied to the frame's exact wire position); then block
    /// for the reply `accepts` recognises. A failed send unstages the
    /// entry; a link death fails it typed through the down sweep.
    fn admin_roundtrip(
        &self,
        idx: u32,
        frame: Request,
        accepts: fn(&Response) -> bool,
        staged: impl FnOnce(&mut Journal),
    ) -> Result<Response, String> {
        let link = &self.links[idx as usize];
        let down = || format!("backend {idx} is down");
        if !link.alive.load(Ordering::SeqCst) {
            return Err(down());
        }
        let (reply, rx) = sync_channel(1);
        {
            let _stage = link.stage.write().expect("stage lock");
            link.pending.push(PendingEntry::Admin { accepts, reply });
            if link.tx.send(BackendMsg::Forward(frame)).is_err() {
                link.pending.unstage_tail(|e| matches!(e, PendingEntry::Admin { .. }));
                return Err(down());
            }
            staged(&mut link.journal.lock().expect("journal lock"));
        }
        rx.recv().unwrap_or_else(|_| Err(format!("backend {idx} connection lost")))
    }

    /// Installs an image on a running backend and resets its journal to
    /// that exact state. Blocks for the `Installed` reply.
    fn admin_install(&self, target: u32, image: FleetImage) -> Result<u64, String> {
        let frame = Request::Install { image: image_to_bytes(&image) };
        let accepts = |r: &Response| matches!(r, Response::Installed { .. });
        let journaling = self.journaling;
        match self.admin_roundtrip(target, frame, accepts, |j| j.reset_to(image, journaling))? {
            Response::Installed { sessions } => Ok(sessions),
            _ => unreachable!("the pending entry accepts only Installed"),
        }
    }

    /// Captures-and-removes every live session of a backend. Blocks for
    /// the `Drained` reply and returns the image blob.
    fn admin_drain(&self, source: u32) -> Result<Bytes, String> {
        let accepts = |r: &Response| matches!(r, Response::Drained { .. });
        match self.admin_roundtrip(source, Request::Drain, accepts, |_| ())? {
            Response::Drained { image } => Ok(image),
            _ => unreachable!("the pending entry accepts only Drained"),
        }
    }

    /// A quiesce barrier whose reply feeds the recovery machinery
    /// instead of a front connection.
    fn admin_fence(&self, target: u32) -> Result<(), String> {
        let accepts = |r: &Response| matches!(r, Response::Stats(_));
        self.admin_roundtrip(target, Request::Flush, accepts, |_| ()).map(|_| ())
    }

    /// One link's turn in a checkpoint sweep: prefer a delta capture
    /// when the chain is armed, fall back to (and re-arm with) a full
    /// image capture.
    fn checkpoint_link(&self, idx: u32) -> Result<bool, String> {
        let armed = self.links[idx as usize].journal.lock().expect("journal lock").armed;
        if armed && self.capture(idx, true).is_ok() {
            return Ok(true);
        }
        self.capture(idx, false).map(|()| false)
    }

    /// One capture round-trip: stage the frame and the journal cut
    /// atomically (stage write lock), block for the reply, fold it into
    /// the journal. The cut is what ties the reply to a wire position:
    /// frames journaled before the capture frame are covered by the
    /// reply; frames after it are the new tail.
    fn capture(&self, idx: u32, delta: bool) -> Result<(), String> {
        let link = &self.links[idx as usize];
        let (frame, accepts): (_, fn(&Response) -> bool) = if delta {
            (Request::DeltaRequest, |r| matches!(r, Response::Delta { .. }))
        } else {
            (Request::SnapshotRequest, |r| matches!(r, Response::Snapshot { .. }))
        };
        let journaling = self.journaling;
        let mut breaks_at_stage = 0;
        let reply = self.admin_roundtrip(idx, frame, accepts, |j| {
            j.stage_cut(journaling);
            breaks_at_stage = j.chain_breaks;
        });
        let _stage = link.stage.write().expect("stage lock");
        let mut journal = link.journal.lock().expect("journal lock");
        let applied = match reply {
            Ok(Response::Snapshot { image }) => match image_from_bytes(image) {
                Ok(image) => {
                    journal.apply_full(image, breaks_at_stage);
                    Ok(())
                }
                Err(e) => Err(format!("backend {idx} snapshot undecodable: {e}")),
            },
            Ok(Response::Delta { delta }) => journal.apply_delta(delta),
            Ok(_) => unreachable!("the pending entry accepts only the capture's reply"),
            Err(detail) => Err(detail),
        };
        if applied.is_err() {
            journal.abort_cut();
        }
        applied
    }

    /// A drained backend that serves no partition any more is empty:
    /// reset its journal and return it to the pool as a future
    /// failover/handoff target.
    fn retire(&self, idx: u32) {
        let journal = &self.links[idx as usize].journal;
        journal.lock().expect("journal lock").reset_to(FleetImage::default(), self.journaling);
        self.standbys.lock().expect("standby pool").push(idx);
    }

    /// Moves one partition's live sessions onto a standby. Caller holds
    /// the admin lock and the topology gate (write).
    fn handoff_inner(&self, partition: u32) -> Result<HandoffStats, RouterAdminError> {
        let source = {
            let map = self.map.read().expect("partition map");
            let partitions = map.slots.len() as u32;
            if partition >= partitions {
                return Err(RouterAdminError::NoSuchPartition { partition, partitions });
            }
            map.slots[partition as usize]
        };
        let target = self.take_standby().ok_or(RouterAdminError::NoStandby)?;
        let blob = self
            .admin_drain(source)
            .map_err(|detail| RouterAdminError::Backend { backend: source, detail })?;
        let image = image_from_bytes(blob.clone()).map_err(|e| RouterAdminError::Backend {
            backend: source,
            detail: format!("drained image undecodable: {e}"),
        })?;
        let moved = match self.admin_install(target, image) {
            Ok(moved) => moved,
            Err(detail) => {
                // Put the sessions back where they came from (the source
                // is still running — it answered the drain) and return
                // the suspect target to nobody: it is dead or broken.
                if let Ok(image) = image_from_bytes(blob) {
                    let _ = self.admin_install(source, image);
                }
                return Err(RouterAdminError::Backend { backend: target, detail });
            }
        };
        let epoch = {
            let mut map = self.map.write().expect("partition map");
            map.slots[partition as usize] = target;
            map.epoch += 1;
            map.epoch
        };
        {
            let trips = self.trips.read().expect("trips lock");
            for route in trips.values() {
                if route.backend.load(Ordering::Relaxed) == source {
                    route.backend.store(target, Ordering::Relaxed);
                }
            }
        }
        self.retire(source);
        self.metrics.handoff_sessions.add(moved);
        Ok(HandoffStats { sessions_moved: moved, epoch })
    }

    /// Re-partitions the whole fleet onto `m` backends. Caller holds the
    /// admin lock and the topology gate (write).
    fn rebalance_inner(&self, m: u32) -> Result<HandoffStats, RouterAdminError> {
        if m == 0 {
            return Err(RouterAdminError::InvalidTopology("cannot rebalance to zero partitions"));
        }
        let m_us = m as usize;
        let actives: Vec<u32> = {
            let map = self.map.read().expect("partition map");
            map.slots
                .iter()
                .copied()
                .filter(|&idx| self.links[idx as usize].alive.load(Ordering::SeqCst))
                .collect()
        };
        let mut new_links = actives.clone();
        let mut borrowed: Vec<u32> = Vec::new();
        if new_links.len() >= m_us {
            new_links.truncate(m_us);
        } else {
            while new_links.len() < m_us {
                match self.take_standby() {
                    Some(idx) => {
                        borrowed.push(idx);
                        new_links.push(idx);
                    }
                    None => {
                        self.standbys.lock().expect("standby pool").extend(borrowed);
                        return Err(RouterAdminError::NoStandby);
                    }
                }
            }
        }
        // Drain every live active. On failure, reinstall what was
        // already drained so no sessions are stranded in router memory.
        let mut drained: Vec<(u32, Bytes)> = Vec::new();
        let mut parts = Vec::with_capacity(actives.len());
        for &src in &actives {
            let image = self.admin_drain(src).and_then(|blob| {
                drained.push((src, blob.clone()));
                image_from_bytes(blob).map_err(|e| format!("drained image undecodable: {e}"))
            });
            match image {
                Ok(image) => parts.push(image),
                Err(detail) => {
                    for (s, blob) in drained {
                        if let Ok(image) = image_from_bytes(blob) {
                            let _ = self.admin_install(s, image);
                        }
                    }
                    self.standbys.lock().expect("standby pool").extend(borrowed);
                    return Err(RouterAdminError::Backend { backend: src, detail });
                }
            }
        }
        let split = split_image(FleetImage::merge(parts), m);
        let mut moved = 0u64;
        for (slot, part) in split.into_iter().enumerate() {
            let target = new_links[slot];
            moved += self
                .admin_install(target, part)
                .map_err(|detail| RouterAdminError::Backend { backend: target, detail })?;
        }
        let epoch = {
            let mut map = self.map.write().expect("partition map");
            map.slots = new_links.clone();
            map.epoch += 1;
            map.epoch
        };
        {
            let trips = self.trips.read().expect("trips lock");
            for (id, route) in trips.iter() {
                let slot = backend_for(*id, m) as usize;
                route.backend.store(new_links[slot], Ordering::Relaxed);
            }
        }
        for &src in &actives {
            if !new_links.contains(&src) {
                self.retire(src);
            }
        }
        self.metrics.handoff_sessions.add(moved);
        Ok(HandoffStats { sessions_moved: moved, epoch })
    }

    fn barrier_open(&self, kind: BarrierKind, conn: u64) -> u64 {
        let bid = self.next_barrier.fetch_add(1, Ordering::Relaxed);
        let in_flight = {
            let mut barriers = self.barriers.lock().expect("barriers lock");
            barriers.insert(
                bid,
                Barrier {
                    kind,
                    conn,
                    sealed: false,
                    expected: 0,
                    got: 0,
                    stats: Vec::new(),
                    images: Vec::new(),
                    metrics: Vec::new(),
                    failed: None,
                },
            );
            barriers.len() as u64
        };
        self.metrics.fanin_depth.record(in_flight);
        bid
    }

    /// The fan-out loop finished: `expected` backends accepted the
    /// barrier frame. Completes the barrier if every contribution already
    /// arrived in the meantime.
    fn barrier_seal(&self, bid: u64, expected: usize) {
        let done = {
            let mut barriers = self.barriers.lock().expect("barriers lock");
            let Some(b) = barriers.get_mut(&bid) else { return };
            b.sealed = true;
            b.expected = expected;
            if b.got >= expected {
                barriers.remove(&bid)
            } else {
                None
            }
        };
        if let Some(b) = done {
            self.finalize(b);
        }
    }

    fn barrier_abort(&self, bid: u64) {
        self.barriers.lock().expect("barriers lock").remove(&bid);
    }

    /// Records one backend's contribution (a reply or a failure) and
    /// completes the barrier once all expected backends answered.
    fn contribute(&self, bid: u64, apply: impl FnOnce(&mut Barrier)) {
        let done = {
            let mut barriers = self.barriers.lock().expect("barriers lock");
            let Some(b) = barriers.get_mut(&bid) else { return };
            apply(b);
            b.got += 1;
            if b.sealed && b.got >= b.expected {
                barriers.remove(&bid)
            } else {
                None
            }
        };
        if let Some(b) = done {
            self.finalize(b);
        }
    }

    /// Builds and delivers a completed barrier's reply. Runs outside the
    /// barrier lock, on whichever thread (the backend mux or a front worker)
    /// supplied the last contribution.
    fn finalize(&self, barrier: Barrier) {
        let resp = if let Some((code, detail)) = barrier.failed {
            Response::error(code, None, detail)
        } else {
            match barrier.kind {
                BarrierKind::Flush => Response::Stats(FleetSnapshot::merged(&barrier.stats)),
                BarrierKind::Snapshot => {
                    // Canonical backend order, so the merged blob is
                    // deterministic whatever order the replies landed in.
                    let mut parts = barrier.images;
                    parts.sort_by_key(|&(idx, _)| idx);
                    let mut images = Vec::with_capacity(parts.len());
                    let mut bad = None;
                    for (idx, blob) in parts {
                        match image_from_bytes(blob) {
                            Ok(image) => images.push(image),
                            Err(e) => {
                                bad = Some(format!("backend {idx} snapshot undecodable: {e}"));
                                break;
                            }
                        }
                    }
                    match bad {
                        Some(detail) => Response::error(ErrorCode::SnapshotFailed, None, detail),
                        None => {
                            Response::Snapshot { image: image_to_bytes(&FleetImage::merge(images)) }
                        }
                    }
                }
                BarrierKind::Metrics => {
                    // Fleet view = every backend's registry plus the
                    // router's own `router.*` metrics, merged entry-wise —
                    // the same discipline as `FleetSnapshot::merged` for
                    // `Stats`. Merge order is irrelevant: entries are
                    // keyed by `(name, kind)` and counts add.
                    let mut parts = barrier.metrics;
                    parts.push(self.metrics.registry.snapshot());
                    Response::Metrics(MetricsSnapshot::merged(&parts))
                }
            }
        };
        self.front.deliver(barrier.conn, resp);
    }

    fn stats(&self) -> RouterStats {
        let front = self.front.stats();
        RouterStats {
            fronts_accepted: front.connections_accepted,
            fronts_open: front.connections_open,
            responses_dropped: front.responses_dropped,
            backends_total: self.links.len() as u64,
            backends_alive: self.links.iter().filter(|l| l.alive.load(Ordering::SeqCst)).count()
                as u64,
            standbys_available: self.standbys.lock().expect("standby pool").len() as u64,
            failovers: self.failovers.load(Ordering::Relaxed),
            last_recovery_micros: self.last_recovery_micros.load(Ordering::Relaxed),
            partition_epoch: self.map.read().expect("partition map").epoch,
        }
    }
}

/// A front worker's door: the producer-side transport core shared with
/// `tad-net`.
type Door = FrontDoor<PollSource, TcpStream>;

/// One front worker's whole life: run the door's ticks, handle what the
/// producers sent, and forget the routes of every connection that went
/// away. Records nothing into the router's metrics registry beyond what
/// forwarding and barriers always did — a barrier's `Metrics` reply is
/// built on the mux thread, so a sample committed here after it would
/// break the wire-merged = in-process equality.
fn front_worker(core: &Core, mut door: Door) {
    let mut events = Vec::new();
    while let Some(tick_start) = door.poll(&mut events) {
        for event in events.drain(..) {
            match event {
                FrontEvent::Frame { conn, req, .. } => {
                    if !door.is_closing(conn) {
                        handle_front(core, &mut door, conn, req);
                    }
                }
                FrontEvent::Hangup(conn, bad_frame) => {
                    door.hangup(conn, bad_frame);
                    core.unroute_front(conn);
                }
            }
        }
        for conn in door.finish_tick(tick_start) {
            core.unroute_front(conn);
        }
    }
    door.teardown_all();
}

fn backend_down_error(id: TripId, backend: u32) -> Response {
    Response::error(ErrorCode::EngineClosed, Some(id), format!("backend {backend} is down"))
}

fn handle_front(core: &Core, door: &mut Door, conn_id: u64, req: Request) {
    match req {
        Request::Flush => handle_barrier(core, door, conn_id, BarrierKind::Flush),
        Request::SnapshotRequest => handle_barrier(core, door, conn_id, BarrierKind::Snapshot),
        Request::MetricsRequest => handle_barrier(core, door, conn_id, BarrierKind::Metrics),
        Request::DeltaRequest | Request::Install { .. } | Request::Drain => {
            // Availability-tier admin frames are point-to-point router↔
            // backend operations; there is no meaningful fleet-wide
            // semantics for them at the front door, so they fail typed
            // instead of being misrouted.
            let refusal = "admin frame is not routable through the router front door";
            door.push(conn_id, Response::error(ErrorCode::Rejected, None, refusal));
        }
        ingest => {
            let (id, is_start) = match &ingest {
                Request::TripStart { id, .. } => (*id, true),
                Request::Segment { id, .. } => (*id, false),
                Request::TripEnd { id } => (*id, false),
                _ => unreachable!("barrier and admin frames are handled above"),
            };
            forward_ingest(core, door, conn_id, id, is_start, ingest)
        }
    }
}

/// Routes one ingest frame through the partition map. With standbys the
/// frame *rides out* a failover: it blocks at the topology gate while a
/// promotion is in progress and retries against the flipped map, for up
/// to `failover_wait` — producers see a pause, not an error. Without
/// standbys a dead backend answers immediately with a typed error (the
/// original contract).
fn forward_ingest(
    core: &Core,
    door: &Door,
    conn_id: u64,
    id: TripId,
    is_start: bool,
    req: Request,
) {
    let deadline = if core.journaling { Some(Instant::now() + core.failover_wait) } else { None };
    let mut claimed = false;
    let mut bumped = false;
    loop {
        // One routing pass under the shared gate: resolve the map, do
        // the route bookkeeping, send. A failover/handoff holding the
        // gate exclusively blocks us here until its map flip.
        let _gate = core.gate.read().expect("topology gate");
        let link_idx = {
            let map = core.map.read().expect("partition map");
            map.slots[backend_for(id, map.slots.len() as u32) as usize]
        };
        let link = &core.links[link_idx as usize];
        if !link.alive.load(Ordering::SeqCst) {
            drop(_gate);
            if retry_wait(deadline) {
                continue;
            }
            release_claim(core, conn_id, id, claimed);
            door.push(conn_id, backend_down_error(id, link_idx));
            return;
        }
        if is_start {
            if claimed {
                // Retry pass: the claim exists, refresh its link.
                let trips = core.trips.read().expect("trips lock");
                if let Some(route) = trips.get(&id) {
                    route.backend.store(link_idx, Ordering::Relaxed);
                }
            } else {
                let mut trips = core.trips.write().expect("trips lock");
                match trips.entry(id) {
                    Entry::Occupied(_) => {
                        drop(trips);
                        // Another live connection owns this trip; duplicate
                        // starts on the same connection are also refused
                        // (the backend engine would reject them anyway).
                        let refusal = "trip id is owned by a live session";
                        door.push(conn_id, Response::error(ErrorCode::Rejected, Some(id), refusal));
                        return;
                    }
                    Entry::Vacant(v) => {
                        v.insert(TripRoute::new(conn_id, link_idx));
                        claimed = true;
                    }
                }
            }
        } else {
            // The hot path: an existing route needs only a read lock plus
            // an atomic bump. The write-lock insert below is the lazy
            // re-attach after a routed warm restart — the restored backend
            // already holds the session, so no TripStart will ever arrive
            // and the first connection to stream for the trip becomes its
            // response route (mirrors the single-server behaviour in
            // tad-net).
            let hit = {
                let trips = core.trips.read().expect("trips lock");
                match trips.get(&id) {
                    Some(route) => {
                        if !bumped {
                            route.forwarded.fetch_add(1, Ordering::Relaxed);
                            bumped = true;
                        }
                        route.backend.store(link_idx, Ordering::Relaxed);
                        true
                    }
                    None => false,
                }
            };
            if !hit {
                let mut trips = core.trips.write().expect("trips lock");
                let route = trips.entry(id).or_insert_with(|| TripRoute::new(conn_id, link_idx));
                if !bumped {
                    route.forwarded.fetch_add(1, Ordering::Relaxed);
                    bumped = true;
                }
                route.backend.store(link_idx, Ordering::Relaxed);
            }
        }
        let forward_started = Instant::now();
        // Journaled send: the stage read-lock makes the send+record pair
        // atomic against a checkpoint cut (which takes the write lock),
        // so a cut position always corresponds to an exact wire prefix.
        // Cross-trip record order may differ from wire order — harmless,
        // replay only needs per-trip order, and each trip's frames come
        // from one connection, read by one front worker.
        let sent = if core.journaling {
            let _stage = link.stage.read().expect("stage lock");
            let ok = link.tx.send(BackendMsg::Forward(req.clone())).is_ok();
            if ok {
                link.journal.lock().expect("journal lock").record(&req);
            }
            ok
        } else {
            link.tx.send(BackendMsg::Forward(req.clone())).is_ok()
        };
        if sent {
            // Channel-accept latency: near zero when the backend link
            // keeps up, the queue-wait time when it saturates.
            let ns = forward_started.elapsed().as_nanos() as u64;
            core.metrics.forward_ns.record(ns);
            core.metrics.per_backend[link_idx as usize].record(ns);
            return;
        }
        drop(_gate);
        if retry_wait(deadline) {
            continue;
        }
        release_claim(core, conn_id, id, claimed);
        door.push(conn_id, backend_down_error(id, link_idx));
        return;
    }
}

/// Brief backoff between forwarding retries while a backend death has
/// been detected but its failover has not engaged the gate yet. Returns
/// false once the deadline passed (or there never was one).
fn retry_wait(deadline: Option<Instant>) -> bool {
    match deadline {
        Some(deadline) if Instant::now() < deadline => {
            std::thread::sleep(Duration::from_millis(2));
            true
        }
        _ => false,
    }
}

/// Releases a start-only claim created by a forwarding attempt that
/// ultimately failed, so the producer can retry the TripStart.
fn release_claim(core: &Core, conn_id: u64, id: TripId, claimed: bool) {
    if !claimed {
        return;
    }
    let mut trips = core.trips.write().expect("trips lock");
    if trips.get(&id).is_some_and(|r| r.conn == conn_id && r.forwarded.load(Ordering::Relaxed) == 0)
    {
        trips.remove(&id);
    }
}

fn handle_barrier(core: &Core, door: &mut Door, conn_id: u64, kind: BarrierKind) {
    // The shared gate spans the whole fan-out: a concurrent handoff
    // cannot drain a backend between this barrier's send to it and the
    // map flip, so a snapshot barrier always sees every session exactly
    // once (all on the old topology, or all on the new one).
    let _gate = core.gate.read().expect("topology gate");
    let bid = core.barrier_open(kind, conn_id);
    let slots: Vec<u32> = core.map.read().expect("partition map").slots.clone();
    let sent = slots
        .into_iter()
        .map(|idx| &core.links[idx as usize])
        .filter(|link| link.alive.load(Ordering::SeqCst) && link.stage_barrier(kind, bid))
        .count();
    if sent == 0 {
        // No live backend accepted the frame: drop the barrier (a down
        // sweep racing the loop may have contributed a failure to it, but
        // never finalized it — it was not sealed), answer directly, and
        // hang up.
        core.barrier_abort(bid);
        door.push(conn_id, Response::error(ErrorCode::EngineClosed, None, "no live backends"));
        door.close(conn_id);
        core.unroute_front(conn_id);
        return;
    }
    core.barrier_seal(bid, sent);
}

/// Builder for [`RouterServer`]; start from [`RouterServer::builder`].
pub struct RouterServerBuilder {
    backends: Vec<SocketAddr>,
    standbys: Vec<SocketAddr>,
    cfg: RouterConfig,
}

impl RouterServerBuilder {
    /// Adds one active backend `tad-net` server address. Active order is
    /// the initial partition order — it determines the trip
    /// partitioning, so a restarted router must list the same backends
    /// in the same order.
    pub fn backend(mut self, addr: SocketAddr) -> Self {
        self.backends.push(addr);
        self
    }

    /// Adds several active backend addresses at once (see
    /// [`Self::backend`]).
    pub fn backends(mut self, addrs: impl IntoIterator<Item = SocketAddr>) -> Self {
        self.backends.extend(addrs);
        self
    }

    /// Adds one standby backend: a running, empty `tad-net` server that
    /// serves no partition until a failover promotes it or a handoff
    /// targets it. Adding at least one standby turns on the whole
    /// availability tier (recovery journals, failover, ingest
    /// ride-through).
    pub fn standby(mut self, addr: SocketAddr) -> Self {
        self.standbys.push(addr);
        self
    }

    /// Adds several standby addresses at once (see [`Self::standby`]).
    pub fn standbys(mut self, addrs: impl IntoIterator<Item = SocketAddr>) -> Self {
        self.standbys.extend(addrs);
        self
    }

    /// Overrides the router tunables.
    pub fn config(mut self, cfg: RouterConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Connects to every backend (actives, then standbys), binds the
    /// front listening socket, and starts the backend mux, the acceptor
    /// and the front workers.
    ///
    /// # Errors
    /// [`RouterError::NoBackends`] when no active backend address was
    /// given, [`RouterError::BackendConnect`] when a backend cannot be
    /// reached, and [`RouterError::Io`] when the front socket cannot be
    /// bound.
    pub fn bind(self, addr: impl ToSocketAddrs) -> Result<RouterServer, RouterError> {
        let RouterServerBuilder { backends, standbys, cfg } = self;
        if backends.is_empty() {
            return Err(RouterError::NoBackends);
        }
        let actives = backends.len();
        let journaling = !standbys.is_empty();
        let listener = TcpListener::bind(addr)?;

        let all: Vec<SocketAddr> = backends.into_iter().chain(standbys).collect();
        let source = PollSource::new()?;
        let mut links = Vec::with_capacity(all.len());
        let mut mux_links = Vec::with_capacity(all.len());
        for (index, &backend_addr) in all.iter().enumerate() {
            let connect = |error| RouterError::BackendConnect { index, error };
            let stream = TcpStream::connect(backend_addr).map_err(connect)?;
            if cfg.nodelay {
                let _ = stream.set_nodelay(true);
            }
            // The mux drives this socket through readiness, never a
            // blocking call; the BackendLink keeps a clone purely for
            // shutdown wake-ups (shutdown reaches the shared socket).
            stream.set_nonblocking(true).map_err(connect)?;
            let shutdown_handle = stream.try_clone().map_err(connect)?;
            let (tx, rx) = sync_channel::<BackendMsg>(cfg.backend_queue);
            let armed = Arc::new(AtomicBool::new(false));
            mux_links.push(MuxLink { rx, armed: Arc::clone(&armed), stream });
            links.push(BackendLink {
                alive: AtomicBool::new(true),
                tx: LinkSender::new(tx, armed, source.waker()),
                pending: Pending::default(),
                stage: RwLock::new(()),
                journal: Mutex::new(Journal::new(cfg.journal_limit, journaling)),
                replaying: AtomicBool::new(false),
                down_handled: AtomicBool::new(false),
                stream: shutdown_handle,
            });
        }

        // One readiness-driven mux thread owns every backend socket: it
        // drains the forwarding channels, flushes per-link write buffers,
        // reassembles response frames, and runs the idempotent
        // backend-down sweep when a link dies — so a failing link always
        // fails (or fails over) staged work instead of leaving it
        // pending, while the other links keep flowing.
        //
        // The producer side is the `tad-net` front door with the router's
        // four front knobs; everything else (workers, read budget; no
        // quota, idle timeout or rate limit) is its default — except the
        // write high-water mark. The door stops *reading* a producer once
        // that many reply bytes sit unflushed behind its socket, and at
        // the 1 MiB default the router would stall producers for bursts
        // they did not cause: a dead backend fails every live trip of a
        // connection at once (a full response queue of errors is ~4 MiB),
        // and closed-loop producers read nothing until a round is written.
        // So the byte mark is sized from the reply-count knob instead, at
        // 1 KiB per queued reply (64 MiB by default): a producer that
        // stops draining loses replies past `response_queue` long before
        // it is paused.
        let front_shared = FrontShared::new(
            NetConfig {
                max_frame_len: cfg.max_frame_len,
                response_queue: cfg.response_queue,
                write_highwater: cfg.response_queue.saturating_mul(1 << 10),
                nodelay: cfg.nodelay,
                accept_backlog: cfg.accept_backlog,
                ..NetConfig::default()
            },
            FrontCounters::default(),
        );
        let core = Arc::new(Core::new(links, actives, &cfg, Arc::clone(&front_shared)));
        let mux_core = Arc::clone(&core);
        let max = cfg.max_frame_len;
        let backend_threads = vec![std::thread::Builder::new()
            .name("tad-router-backend-mux".to_string())
            .spawn(move || backend_mux(source, mux_links, mux_core, max))
            .expect("spawn backend mux")];

        let worker_core = Arc::clone(&core);
        let front = FrontListener::spawn(
            listener,
            front_shared,
            "tad-router-conn",
            "tad-router-acceptor",
            move |door| front_worker(&worker_core, door),
        )?;

        Ok(RouterServer { core, front, backend_threads })
    }
}

/// A running router tier: a `TADN` front door hash-partitioning trips
/// across N `tad-net` backends, with optional standbys behind a
/// self-healing availability tier. Construct with
/// [`RouterServer::builder`]; see the module docs for data flow,
/// stickiness, barrier, and failover semantics. Producers connect with
/// the unmodified [`tad_net::Client`] — the router is wire-compatible
/// with a single backend.
pub struct RouterServer {
    core: Arc<Core>,
    front: FrontListener,
    backend_threads: Vec<JoinHandle<()>>,
}

impl RouterServer {
    /// Starts building a router. Add backends with
    /// [`RouterServerBuilder::backend`] (and optionally
    /// [`RouterServerBuilder::standby`]), then
    /// [`RouterServerBuilder::bind`] the front door (port 0 lets the OS
    /// pick; read it back with [`RouterServer::local_addr`]).
    pub fn builder() -> RouterServerBuilder {
        RouterServerBuilder {
            backends: Vec::new(),
            standbys: Vec::new(),
            cfg: RouterConfig::default(),
        }
    }

    /// The address the front door is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// How many partitions the map currently has (the `N` of
    /// [`crate::backend_for`]). Constant under failover and handoff;
    /// changed only by [`RouterServer::rebalance`].
    pub fn num_backends(&self) -> usize {
        self.core.map.read().expect("partition map").slots.len()
    }

    /// How many backend links the router was built over, actives plus
    /// standbys.
    pub fn num_links(&self) -> usize {
        self.core.links.len()
    }

    /// Point-in-time router counters.
    pub fn stats(&self) -> RouterStats {
        self.core.stats()
    }

    /// Snapshot of the router's *own* metrics (`router.forward_ns`,
    /// `router.fanin_depth`, `router.failovers`,
    /// `router.handoff_sessions`, `router.replay_suppressed`,
    /// `router.recovery_micros`, `router.throttled`,
    /// `router.backend.N.forward_ns`, `router.backend.N.throttled`). The
    /// fleet-wide view — these merged with every live backend's snapshot
    /// — is what a front connection gets from
    /// [`tad_net::Client::metrics`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.metrics.registry.snapshot()
    }

    /// Runs one checkpoint sweep over every mapped backend: capture its
    /// state (a cheap `TADD` delta of the churn since the last sweep
    /// when possible, a full `TADF` image otherwise) and re-base its
    /// recovery journal at the capture's wire position. Call this
    /// periodically; between sweeps the journal records forwarded
    /// frames, and a backend that dies is restored from
    /// `checkpoint base + journaled tail`, bit-identically.
    ///
    /// # Errors
    /// [`RouterAdminError::Backend`] naming the first backend whose
    /// capture failed; already-captured backends keep their new base.
    pub fn checkpoint(&self) -> Result<CheckpointStats, RouterAdminError> {
        let core = &self.core;
        let _admin = core.admin.lock().expect("admin lock");
        // Shared gate: wait out an in-flight failover, then capture on
        // the settled map.
        let _gate = core.gate.read().expect("topology gate");
        let slots: Vec<u32> = core.map.read().expect("partition map").slots.clone();
        let mut stats = CheckpointStats::default();
        for idx in slots {
            match core.checkpoint_link(idx) {
                Ok(true) => stats.delta_captures += 1,
                Ok(false) => stats.full_captures += 1,
                Err(detail) => {
                    return Err(RouterAdminError::Backend { backend: idx, detail });
                }
            }
        }
        Ok(stats)
    }

    /// Migrates one partition's live sessions from the backend currently
    /// serving it onto a standby, invisibly to producers: in-flight
    /// frames are held at the topology gate, the source is drained (no
    /// completions fire), the sessions are installed on the standby, and
    /// the map flips. The freed source becomes a standby itself, so
    /// repeated handoffs rotate through the fleet.
    ///
    /// # Errors
    /// [`RouterAdminError::NoSuchPartition`] for an out-of-range
    /// partition, [`RouterAdminError::NoStandby`] when the pool is
    /// empty, and [`RouterAdminError::Backend`] when the drain or
    /// install fails (a failed install re-installs the drained sessions
    /// back onto the source, best-effort).
    pub fn handoff(&self, partition: u32) -> Result<HandoffStats, RouterAdminError> {
        let core = &self.core;
        let _admin = core.admin.lock().expect("admin lock");
        let _gate = core.gate.write().expect("topology gate");
        core.handoff_inner(partition)
    }

    /// Re-partitions the whole fleet onto `num_active` backends: every
    /// live mapped backend is drained, the sessions are merged and
    /// re-split with [`crate::split_image`] for the new partition count,
    /// and each part is installed on its new home (grown fleets pull
    /// standbys in; shrunk fleets return freed backends to the pool).
    /// Producers are held at the gate throughout and resume against the
    /// new map — scoring continues bit-identically.
    ///
    /// # Errors
    /// [`RouterAdminError::InvalidTopology`] for zero partitions,
    /// [`RouterAdminError::NoStandby`] when growing past the pool, and
    /// [`RouterAdminError::Backend`] when a drain or install fails
    /// (drained sessions are re-installed onto their sources,
    /// best-effort, when the operation aborts before any install).
    pub fn rebalance(&self, num_active: u32) -> Result<HandoffStats, RouterAdminError> {
        let core = &self.core;
        let _admin = core.admin.lock().expect("admin lock");
        let _gate = core.gate.write().expect("topology gate");
        core.rebalance_inner(num_active)
    }

    /// Stops accepting, closes every front connection and backend link,
    /// joins all threads, and returns the final router counters. The
    /// backends themselves keep running — they are independent servers.
    pub fn shutdown(mut self) -> RouterStats {
        let stats = self.stats();
        self.stop();
        stats
    }

    fn stop(&mut self) {
        if self.backend_threads.is_empty() {
            return; // already stopped
        }
        // From here on, backend deaths must not spawn recovery threads:
        // the links are about to be torn down deliberately.
        self.core.closing.store(true, Ordering::SeqCst);
        self.front.stop();
        for link in &self.core.links {
            // Orderly close: the mux flushes what is buffered, then reaps
            // the link.
            let _ = link.tx.send(BackendMsg::Close);
            let _ = link.stream.shutdown(Shutdown::Both);
        }
        for handle in std::mem::take(&mut self.backend_threads) {
            let _ = handle.join();
        }
        // Recovery threads last: closing the links above failed any
        // reply they were still blocked on, so they are guaranteed to
        // finish.
        let recovery =
            std::mem::take(&mut *self.core.recovery_threads.lock().expect("recovery threads"));
        for handle in recovery {
            let _ = handle.join();
        }
    }
}

impl Drop for RouterServer {
    fn drop(&mut self) {
        self.stop();
    }
}
