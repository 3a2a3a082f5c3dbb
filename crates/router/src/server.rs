//! The router tier's public face: configuration, the builder that wires
//! a [`RouterLoop`] to real sockets, the [`RouterServer`] handle, and the
//! blocking admin *scripts* (checkpoint, handoff, rebalance, failover
//! recovery) that drive the loop from outside it.
//!
//! ## Data flow
//!
//! ```text
//!                 ┌──────────────── the router loop: one thread ────────────────┐
//! producers ─TADN─▶ read + decode ─▶ partition map ─▶ link write buffer ────────┼─TADN─▶ tad-net
//!    ▲            │   Flush / Snapshot / Metrics: barrier over the map          │       backends
//!    │            │                                                             │          │
//!    └── sockets ◀┼── per-conn response queue ◀── fan-in ◀── decode ◀── read ───┼──────────┘
//!                 │ inbox ◀── closures from admin scripts / the recovery driver │
//!                 └─────────────────────────────────────────────────────────────┘
//! ```
//!
//! A running router is the acceptor, the loop thread
//! (`tad-router-conn-0`: a [`tad_net::FrontDoor`] worker that also owns
//! every backend link — see [`crate::RouterLoop`]), and a recovery driver
//! only while a failover is in progress. The loop never blocks on a
//! backend: a full link socket is write-interest, a saturated link pauses
//! *reading producers*, and a topology change parks the frames already
//! read until it is over.
//!
//! **Stickiness**: a trip's partition is the pure function
//! [`crate::backend_for`] over the *number of partitions*, and the
//! partition map says which backend link currently serves each
//! partition. Every event of a trip reaches the same backend engine and
//! per-trip event order is preserved end to end (one connection is read
//! in arrival order by the one loop → appended to its link's write
//! buffer → one TCP connection → the backend's own ordered ingest). That
//! is what makes routed scoring bit-identical to a single in-process
//! engine.
//!
//! **Barriers**: a front `Flush` fans out to every mapped live backend
//! and replies with [`FleetSnapshot::merged`](tad_serve::FleetSnapshot::merged)
//! aggregate stats only after all of them answered — and because each
//! backend's `Stats` follows all of its earlier replies on the same
//! connection, the aggregate reply is queued after every response caused
//! by events the producer sent first: the single-server quiesce contract,
//! fleet-wide. `SnapshotRequest` works the same way and replies with the
//! [`FleetImage::merge`] of every backend's capture, ready for
//! [`crate::split_image`] onto a fleet of a different size. The fan-out
//! is one loop step, so a barrier always sees one topology.
//!
//! ## The availability tier
//!
//! With standby backends ([`RouterServerBuilder::standbys`]) the router
//! keeps a bounded **recovery journal** per active link: the last
//! checkpointed [`FleetImage`] of that backend (maintained cheaply by
//! [`RouterServer::checkpoint`], which prefers `TADD` delta captures
//! over full images once the backend's chain is armed) plus every ingest
//! frame forwarded since the checkpoint cut. When the loop reaps an
//! active link it engages the *hold* in the same step — producers are
//! not read, frames already decoded are parked — and spawns a recovery
//! driver, which promotes a standby: it installs the journal base image,
//! replays the journaled tail (chunked, with flush fences so replay can
//! never overflow the backend's ingest queue), flips the partition map
//! and releases the hold. Scores the producers already received are
//! suppressed by a per-trip delivered high-water mark, so the stream
//! each producer observes is **bit-identical** to an uninterrupted run —
//! every score exactly once, in order.
//!
//! [`RouterServer::handoff`] and [`RouterServer::rebalance`] use the
//! same machinery deliberately: hold, drain the source engine's live
//! sessions (no completions fired), install them on the target, flip the
//! map, release. Parked frames replay in arrival order afterwards, so a
//! migration is invisible to producers.
//!
//! The scripts are plain sequential code on their caller's (or the
//! driver's) thread, serialised by one `admin` mutex. Every touch of
//! router state inside them is a closure run on the loop through its
//! inbox, and every backend round-trip is "on the loop: stage the
//! pending entry, queue the frame, run the journal op — atomic, because
//! single-threaded — then wait on a one-shot reply".
//!
//! **Failure without a standby** keeps the old contract: a dead backend
//! fails in-flight barriers and surfaces a typed
//! [`ErrorCode::EngineClosed`](tad_net::ErrorCode::EngineClosed) error to
//! every front connection with a live trip on it; trips on healthy
//! backends keep scoring.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tad_metrics::{Counter, Histogram, MetricsSnapshot, Registry};
use tad_net::{
    ErrorCode, EventSource, FrontCounters, FrontListener, FrontShared, NetConfig, PollSource,
    Request, Response, DEFAULT_MAX_FRAME,
};
use tad_serve::{image_from_bytes, image_to_bytes, FleetImage};

use crate::backend::PendingEntry;
use crate::evloop::{Handle, RouterLoop};
use crate::journal::Journal;
use crate::partition::{backend_for, split_image};

/// Tunables of the router tier (each backend engine has its own
/// [`tad_serve::FleetConfig`] behind its own `tad-net` server). Accepted
/// and backend sockets always get `TCP_NODELAY`.
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
    /// Cap on each link's recovery journal, in frames. A journal that
    /// would exceed this is discarded (the link stops being recoverable
    /// until the next [`RouterServer::checkpoint`] re-bases it) rather
    /// than growing without bound — size it to the expected ingest volume
    /// of one checkpoint interval. Only meaningful with standbys.
    pub journal_limit: usize,
    /// How long a producer frame may stay parked behind a topology
    /// change (a failover, a handoff, a rebalance) before the router
    /// gives up on it and answers with a typed `EngineClosed` error;
    /// checked on every loop tick while the change is in progress.
    /// Without standbys nothing is ever parked: dead backends answer
    /// immediately.
    pub failover_wait: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            max_frame_len: DEFAULT_MAX_FRAME,
            response_queue: 65_536,
            journal_limit: 8_192,
            failover_wait: Duration::from_secs(10),
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
    /// A [`RouterConfig`] bound is zero (`max_frame_len` or
    /// `response_queue`, checked by [`NetConfig::check`] on the front
    /// door's config); names the field.
    InvalidConfig(&'static str),
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
            RouterError::InvalidConfig(what) => write!(f, "invalid router config: {what}"),
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
    pub(crate) fn frame(self) -> Request {
        match self {
            BarrierKind::Flush => Request::Flush,
            BarrierKind::Snapshot => Request::SnapshotRequest,
            BarrierKind::Metrics => Request::MetricsRequest,
        }
    }
}

/// Handles into the router's own metrics registry (`router.*`), cached
/// when the router is built. These describe the router process itself; a front
/// `MetricsRequest` merges them with every backend's snapshot.
pub(crate) struct RouterMetrics {
    pub(crate) registry: Arc<Registry>,
    /// `router.forward_ns`: time from picking a live backend to the
    /// frame sitting encoded in that link's write buffer, one sample per
    /// forwarded ingest frame. A saturated link does not show here (the
    /// loop never waits on one); it shows as producers paused by the
    /// link-backlog read-hold.
    pub(crate) forward_ns: Arc<Histogram>,
    /// `router.fanin_depth`: fleet-wide barriers in flight, observed at
    /// each barrier open (including the one being opened).
    pub(crate) fanin_depth: Arc<Histogram>,
    /// `router.failovers`: completed standby promotions.
    pub(crate) failovers: Arc<Counter>,
    /// `router.handoff_sessions`: live sessions moved by handoffs and
    /// rebalances.
    pub(crate) handoff_sessions: Arc<Counter>,
    /// `router.replay_suppressed`: replies swallowed during journal
    /// replay because the producer had already received them (the
    /// duplicate side of the exactly-once ledger).
    pub(crate) replay_suppressed: Arc<Counter>,
    /// `router.recovery_micros`: wall-clock duration of completed
    /// failovers.
    pub(crate) recovery_micros: Arc<Histogram>,
    /// `router.throttled`: trip-scoped `Throttled` refusals fanned back
    /// in from any backend — the fleet-wide overload signal as seen at
    /// the router.
    pub(crate) throttled: Arc<Counter>,
    /// `router.backend.N.forward_ns`: the per-link split of
    /// `forward_ns`, same clock.
    pub(crate) per_backend: Vec<Arc<Histogram>>,
    /// `router.backend.N.throttled`: the per-link split of
    /// `router.throttled` — which backend is shedding.
    pub(crate) per_backend_throttled: Vec<Arc<Counter>>,
}

impl RouterMetrics {
    pub(crate) fn register(num_links: usize) -> Self {
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

/// The producer side is the `tad-net` front door with the router's two
/// front knobs and one worker; everything else (no quota, idle timeout or
/// rate limit) is its default — except the write high-water mark. The door stops *reading* a producer once that many
/// reply bytes sit unflushed behind its socket, and at the 1 MiB default
/// the router would stall producers for bursts they did not cause: a
/// dead backend fails every live trip of a connection at once (a full
/// response queue of errors is ~4 MiB), and closed-loop producers read
/// nothing until a round is written. So the byte mark is sized from the
/// reply-count knob instead, at 1 KiB per queued reply (64 MiB by
/// default): a producer that stops draining loses replies past
/// `response_queue` long before it is paused.
pub(crate) fn front_config(cfg: &RouterConfig) -> NetConfig {
    NetConfig {
        max_frame_len: cfg.max_frame_len,
        response_queue: cfg.response_queue,
        write_highwater: cfg.response_queue.saturating_mul(1 << 10),
        event_workers: 1,
        ..NetConfig::default()
    }
}

/// A `RouterServer` method found the loop gone: only a panic on the loop
/// thread can do that while the server handle is still alive.
const LOOP_ALIVE: &str = "the router loop outlives its RouterServer";

/// What a script reports when the loop exited under it (shutdown).
fn loop_gone() -> String {
    "the router is shutting down".to_string()
}

/// The failover driver, on its own thread, spawned by the loop in the
/// step that reaped link `dead` and engaged the hold. Tries the standbys
/// in pool order; whatever the outcome, its last act on the loop releases
/// the hold, and the parked producers resume against the map it left.
pub(crate) fn recover<S, T>(handle: &Handle<S, T>, dead: u32, restage: Vec<(BarrierKind, u64)>)
where
    S: EventSource<T> + 'static,
    T: Read + Write + 'static,
{
    let started = Instant::now();
    let _admin = handle.admin.lock().expect("admin lock");
    while let Some(target) = handle.on_loop(|router| router.take_standby()).flatten() {
        if handle.try_promote(dead, target, &restage).is_ok() {
            let micros = started.elapsed().as_micros() as u64;
            handle.metrics.recovery_micros.record(micros);
            handle.metrics.failovers.add(1);
            handle.on_loop(move |router| {
                router.last_recovery_micros = micros;
                router.failovers += 1;
                router.holds -= 1;
            });
            return;
        }
        // `target` is consumed (dead or suspect): next standby, if any.
    }
    // Every standby was tried (or the pool was raced empty): fall back to
    // the no-standby contract.
    handle.on_loop(move |router| {
        for (kind, bid) in restage {
            let detail = format!("backend {dead} connection lost and no standby could take over");
            router.fail_entry(PendingEntry::Barrier(kind, bid), ErrorCode::EngineClosed, detail);
        }
        router.fail_routes(dead);
        router.holds -= 1;
    });
}

/// The admin scripts. Each is sequential code on the calling thread;
/// `on_loop` closures are its only access to router state.
impl<S, T> Handle<S, T>
where
    S: EventSource<T> + 'static,
    T: Read + Write + 'static,
{
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
        let (image, frames) = self
            .on_loop(move |router| {
                let journal = &router.links[dead as usize].journal;
                journal
                    .recoverable()
                    .then(|| (journal.base.image().clone(), journal.frames.clone()))
            })
            .ok_or_else(loop_gone)?
            .ok_or("journal discarded")?;
        let moved = self.admin_install(target, image)?;
        self.on_loop(move |router| router.links[target as usize].replaying = true);
        let replayed = self.replay_frames(target, frames);
        let restage = restage.to_vec();
        self.on_loop(move |router| {
            router.links[target as usize].replaying = false;
            replayed?;
            if !router.links[target as usize].alive() {
                return Err(format!("backend {target} died during replay"));
            }
            // The flip: every partition the dead link served (exactly
            // one, by construction) now points at the promoted backend,
            // and the partition's trips resume normal delivery.
            for slot in router.map.slots.iter_mut().filter(|slot| **slot == dead) {
                *slot = target;
            }
            router.map.epoch += 1;
            for route in router.trips.values_mut().filter(|route| route.backend == dead) {
                route.backend = target;
                route.replaying = false;
            }
            // Barriers that were staged on the dead link get their answer
            // from the promoted backend: the replay fence already proved
            // it holds everything those barriers were waiting to cover.
            for (kind, bid) in restage {
                router.stage_barrier(target, kind, bid);
            }
            Ok(moved)
        })
        .unwrap_or_else(|| Err(loop_gone()))
    }

    /// Replays journaled ingest frames onto `target` in chunks, with a
    /// flush fence after each chunk so replay can never outrun the
    /// backend's bounded ingest queue (chunk size < queue capacity per
    /// shard). The frames are re-journaled as they go: the target's own
    /// journal stays faithful for a later failover of the failover.
    fn replay_frames(&self, target: u32, frames: Vec<Request>) -> Result<(), String> {
        let mut frames = frames.into_iter().peekable();
        while frames.peek().is_some() {
            let chunk: Vec<Request> = frames.by_ref().take(1024).collect();
            let queued = self.on_loop(move |router| {
                let link = &mut router.links[target as usize];
                for req in &chunk {
                    link.queue(req);
                    link.journal.record(req);
                }
                link.alive()
            });
            if queued != Some(true) {
                return Err(format!("backend {target} died during replay"));
            }
            self.admin_fence(target)?;
        }
        Ok(())
    }

    /// One staged admin round-trip: on the loop, check the link is alive,
    /// stage a pending entry, queue `frame`, and run `staged` (journal
    /// bookkeeping tied to the frame's exact wire position) — one step,
    /// so pending-queue order equals wire order; then block for the reply
    /// `accepts` recognises. A link death fails the entry typed through
    /// the loop's down sweep.
    fn admin_roundtrip<R: Send + 'static>(
        &self,
        idx: u32,
        frame: Request,
        accepts: fn(&Response) -> bool,
        staged: impl FnOnce(&mut Journal) -> R + Send + 'static,
    ) -> Result<(Response, R), String> {
        let (reply, rx) = sync_channel(1);
        let staged = self
            .on_loop(move |router| {
                router.stage_admin(idx, &frame, PendingEntry::Admin { accepts, reply }, staged)
            })
            .unwrap_or_else(|| Err(loop_gone()))?;
        let resp = rx.recv().unwrap_or_else(|_| Err(format!("backend {idx} connection lost")))?;
        Ok((resp, staged))
    }

    /// Installs an image on a running backend and resets its journal to
    /// that exact state. Blocks for the `Installed` reply.
    fn admin_install(&self, target: u32, image: FleetImage) -> Result<u64, String> {
        let frame = Request::Install { image: image_to_bytes(&image) };
        let accepts = |r: &Response| matches!(r, Response::Installed { .. });
        let journaling = self.journaling;
        let staged = move |journal: &mut Journal| journal.reset_to(image, journaling);
        match self.admin_roundtrip(target, frame, accepts, staged)?.0 {
            Response::Installed { sessions } => Ok(sessions),
            _ => unreachable!("the pending entry accepts only Installed"),
        }
    }

    /// Captures-and-removes every live session of a backend. Blocks for
    /// the `Drained` reply and returns the image blob.
    fn admin_drain(&self, source: u32) -> Result<Bytes, String> {
        let accepts = |r: &Response| matches!(r, Response::Drained { .. });
        match self.admin_roundtrip(source, Request::Drain, accepts, |_| ())?.0 {
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

    /// One checkpoint sweep over every mapped backend.
    fn checkpoint(&self) -> Result<CheckpointStats, RouterAdminError> {
        // The recovery driver holds `admin` for the length of a failover:
        // a sweep waits it out, then captures on the settled map.
        let _admin = self.admin.lock().expect("admin lock");
        let slots = self.on_loop(|router| router.map.slots.clone()).expect(LOOP_ALIVE);
        let mut stats = CheckpointStats::default();
        for idx in slots {
            match self.checkpoint_link(idx) {
                Ok(true) => stats.delta_captures += 1,
                Ok(false) => stats.full_captures += 1,
                Err(detail) => return Err(RouterAdminError::Backend { backend: idx, detail }),
            }
        }
        Ok(stats)
    }

    /// One link's turn in a checkpoint sweep: prefer a delta capture
    /// when the chain is armed, fall back to (and re-arm with) a full
    /// image capture.
    fn checkpoint_link(&self, idx: u32) -> Result<bool, String> {
        let armed = self.on_loop(move |router| router.links[idx as usize].journal.armed);
        if armed.ok_or_else(loop_gone)? && self.capture(idx, true).is_ok() {
            return Ok(true);
        }
        self.capture(idx, false).map(|()| false)
    }

    /// One capture round-trip: stage the frame and the journal cut in one
    /// loop step, block for the reply, fold it into the journal. The cut
    /// is what ties the reply to a wire position: frames journaled before
    /// the capture frame are covered by the reply; frames after it are
    /// the new tail.
    fn capture(&self, idx: u32, delta: bool) -> Result<(), String> {
        let (frame, accepts): (_, fn(&Response) -> bool) = if delta {
            (Request::DeltaRequest, |r| matches!(r, Response::Delta { .. }))
        } else {
            (Request::SnapshotRequest, |r| matches!(r, Response::Snapshot { .. }))
        };
        let journaling = self.journaling;
        let reply = self.admin_roundtrip(idx, frame, accepts, move |journal| {
            journal.stage_cut(journaling);
            journal.chain_breaks
        });
        // Decode here; only the fold into the journal runs on the loop.
        type Fold = Box<dyn FnOnce(&mut Journal) -> Result<(), String> + Send>;
        let fold = reply.and_then(|(resp, breaks_at_stage)| match resp {
            Response::Snapshot { image } => {
                let image = image_from_bytes(image)
                    .map_err(|e| format!("backend {idx} snapshot undecodable: {e}"))?;
                Ok(Box::new(move |journal: &mut Journal| {
                    journal.apply_full(image, breaks_at_stage);
                    Ok(())
                }) as Fold)
            }
            Response::Delta { delta } => Ok(Box::new(move |j: &mut Journal| j.apply_delta(delta))),
            _ => unreachable!("the pending entry accepts only the capture's reply"),
        });
        self.on_loop(move |router| {
            let journal = &mut router.links[idx as usize].journal;
            let applied = fold.and_then(|fold| fold(journal));
            if applied.is_err() {
                journal.abort_cut();
            }
            applied
        })
        .unwrap_or_else(|| Err(loop_gone()))
    }

    /// Runs a topology-changing script with the loop held: producers are
    /// not read and frames already decoded are parked until it returns.
    fn held<R>(&self, script: impl FnOnce() -> R) -> R {
        let _admin = self.admin.lock().expect("admin lock");
        self.on_loop(|router| router.holds += 1).expect(LOOP_ALIVE);
        let out = script();
        self.on_loop(|router| router.holds -= 1).expect(LOOP_ALIVE);
        out
    }

    /// Moves one partition's live sessions onto a standby. Runs
    /// [`Handle::held`].
    fn handoff_inner(&self, partition: u32) -> Result<HandoffStats, RouterAdminError> {
        let picked = self.on_loop(move |router| {
            let partitions = router.map.slots.len() as u32;
            if partition >= partitions {
                return Err(RouterAdminError::NoSuchPartition { partition, partitions });
            }
            let target = router.take_standby().ok_or(RouterAdminError::NoStandby)?;
            Ok((router.map.slots[partition as usize], target))
        });
        let (source, target) = picked.expect(LOOP_ALIVE)?;
        let drained = self.admin_drain(source).and_then(|blob| {
            let image = image_from_bytes(blob.clone())
                .map_err(|e| format!("drained image undecodable: {e}"))?;
            Ok((blob, image))
        });
        let (blob, image) = match drained {
            Ok(drained) => drained,
            Err(detail) => {
                // The target was never touched: it goes back to the head
                // of the pool, where `take_standby` found it.
                self.on_loop(move |router| router.standbys.insert(0, target));
                return Err(RouterAdminError::Backend { backend: source, detail });
            }
        };
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
        let flipped = self.on_loop(move |router| {
            router.map.slots[partition as usize] = target;
            router.map.epoch += 1;
            for route in router.trips.values_mut().filter(|route| route.backend == source) {
                route.backend = target;
            }
            router.retire(source);
            router.map.epoch
        });
        self.metrics.handoff_sessions.add(moved);
        Ok(HandoffStats { sessions_moved: moved, epoch: flipped.expect(LOOP_ALIVE) })
    }

    /// Re-partitions the whole fleet onto `m` backends. Runs
    /// [`Handle::held`].
    fn rebalance_inner(&self, m: u32) -> Result<HandoffStats, RouterAdminError> {
        if m == 0 {
            return Err(RouterAdminError::InvalidTopology("cannot rebalance to zero partitions"));
        }
        // The new slot list: live actives first, grown from the pool or
        // truncated to `m`. `borrowed` is what a failure must give back.
        let picked = self.on_loop(move |router| {
            let actives: Vec<u32> = (router.map.slots.iter().copied())
                .filter(|&idx| router.links[idx as usize].alive())
                .collect();
            let mut new_links = actives.clone();
            new_links.truncate(m as usize);
            let mut borrowed = Vec::new();
            while new_links.len() < m as usize {
                let Some(idx) = router.take_standby() else {
                    router.standbys.extend(borrowed);
                    return Err(RouterAdminError::NoStandby);
                };
                borrowed.push(idx);
                new_links.push(idx);
            }
            Ok((actives, new_links, borrowed))
        });
        let (actives, new_links, borrowed) = picked.expect(LOOP_ALIVE)?;
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
                    self.on_loop(move |router| router.standbys.extend(borrowed));
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
        let flipped = self.on_loop(move |router| {
            for route in router.trips.iter_mut() {
                route.1.backend = new_links[backend_for(*route.0, m) as usize];
            }
            for &src in actives.iter().filter(|src| !new_links.contains(src)) {
                router.retire(src);
            }
            router.map.slots = new_links;
            router.map.epoch += 1;
            router.map.epoch
        });
        self.metrics.handoff_sessions.add(moved);
        Ok(HandoffStats { sessions_moved: moved, epoch: flipped.expect(LOOP_ALIVE) })
    }
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

    /// Adds standby backends: running, empty `tad-net` servers that serve
    /// no partition until a failover promotes one or a handoff targets it.
    /// Adding at least one standby turns on the whole availability tier
    /// (recovery journals, failover, ingest ride-through).
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
    /// front listening socket, and starts the acceptor and the router
    /// loop.
    ///
    /// # Errors
    /// [`RouterError::NoBackends`] when no active backend address was
    /// given, [`RouterError::InvalidConfig`] when a bound is zero,
    /// [`RouterError::BackendConnect`] when a backend cannot be reached,
    /// and [`RouterError::Io`] when the front socket cannot be bound.
    pub fn bind(self, addr: impl ToSocketAddrs) -> Result<RouterServer, RouterError> {
        let RouterServerBuilder { backends, standbys, cfg } = self;
        if backends.is_empty() {
            return Err(RouterError::NoBackends);
        }
        let front_cfg = front_config(&cfg);
        front_cfg.check().map_err(RouterError::InvalidConfig)?;
        let actives = backends.len();
        let listener = TcpListener::bind(addr)?;
        let mut links = Vec::with_capacity(actives + standbys.len());
        for (index, backend_addr) in backends.into_iter().chain(standbys).enumerate() {
            let connect = |error| RouterError::BackendConnect { index, error };
            let stream = TcpStream::connect(backend_addr).map_err(connect)?;
            let _ = stream.set_nodelay(true);
            // The loop drives this socket through readiness, never a
            // blocking call.
            stream.set_nonblocking(true).map_err(connect)?;
            links.push(stream);
        }
        let num_links = links.len();
        let front = FrontShared::new(front_cfg, FrontCounters::default());
        let handle: Arc<Wired> = Arc::new(Handle::new(num_links, num_links > actives));
        // The links reach the loop the way everything else does, through
        // its inbox; it runs the inbox before it reads its first producer.
        let link_cfg = cfg.clone();
        handle.post(Box::new(move |router| router.adopt_links(links, actives, &link_cfg)));
        let (loop_front, loop_handle) = (Arc::clone(&front), Arc::clone(&handle));
        let front = FrontListener::spawn(
            listener,
            front,
            "tad-router-conn",
            "tad-router-acceptor",
            move |door| {
                let (front, handle) = (Arc::clone(&loop_front), Arc::clone(&loop_handle));
                RouterLoop::over(door, front, handle, cfg.failover_wait).run()
            },
        )?;
        Ok(RouterServer { handle, front })
    }
}

/// The production wiring [`RouterServerBuilder::bind`] builds: kernel
/// readiness over TCP sockets.
type Wired = Handle<PollSource, TcpStream>;

/// A running router tier: a `TADN` front door hash-partitioning trips
/// across N `tad-net` backends, with optional standbys behind a
/// self-healing availability tier. Construct with
/// [`RouterServer::builder`]; see the module docs for data flow,
/// stickiness, barrier, and failover semantics. Producers connect with
/// the unmodified [`tad_net::Client`] — the router is wire-compatible
/// with a single backend.
pub struct RouterServer {
    handle: Arc<Wired>,
    front: FrontListener,
}

impl RouterServer {
    /// Starts building a router. Add backends with
    /// [`RouterServerBuilder::backend`] (and optionally
    /// [`RouterServerBuilder::standbys`]), then
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
        self.handle.on_loop(|router| router.map.slots.len()).expect(LOOP_ALIVE)
    }

    /// Point-in-time router counters, read on the loop between two
    /// frames.
    pub fn stats(&self) -> RouterStats {
        self.handle.on_loop(|router| router.stats()).expect(LOOP_ALIVE)
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
        self.handle.metrics.registry.snapshot()
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
        self.handle.checkpoint()
    }

    /// Migrates one partition's live sessions from the backend currently
    /// serving it onto a standby, invisibly to producers: the loop is
    /// held (frames in flight are parked), the source is drained (no
    /// completions fire), the sessions are installed on the standby, and
    /// the map flips. The freed source becomes a standby itself, so
    /// repeated handoffs rotate through the fleet.
    ///
    /// # Errors
    /// [`RouterAdminError::NoSuchPartition`] for an out-of-range
    /// partition, [`RouterAdminError::NoStandby`] when the pool is
    /// empty, and [`RouterAdminError::Backend`] when the drain or
    /// install fails (a failed drain returns the untouched standby to the
    /// pool; a failed install re-installs the drained sessions back onto
    /// the source, best-effort, and drops the suspect standby).
    pub fn handoff(&self, partition: u32) -> Result<HandoffStats, RouterAdminError> {
        self.handle.held(|| self.handle.handoff_inner(partition))
    }

    /// Re-partitions the whole fleet onto `num_active` backends: every
    /// live mapped backend is drained, the sessions are merged and
    /// re-split with [`crate::split_image`] for the new partition count,
    /// and each part is installed on its new home (grown fleets pull
    /// standbys in; shrunk fleets return freed backends to the pool).
    /// Producers are held throughout and resume against the new map —
    /// scoring continues bit-identically.
    ///
    /// # Errors
    /// [`RouterAdminError::InvalidTopology`] for zero partitions,
    /// [`RouterAdminError::NoStandby`] when growing past the pool, and
    /// [`RouterAdminError::Backend`] when a drain or install fails
    /// (drained sessions are re-installed onto their sources,
    /// best-effort, when the operation aborts before any install).
    pub fn rebalance(&self, num_active: u32) -> Result<HandoffStats, RouterAdminError> {
        self.handle.held(|| self.handle.rebalance_inner(num_active))
    }

    /// Stops accepting, closes every front connection and backend link,
    /// joins all threads, and returns the final router counters. The
    /// backends themselves keep running — they are independent servers.
    pub fn shutdown(mut self) -> RouterStats {
        let stats = self.stats();
        self.front.stop();
        stats
    }
}

impl Drop for RouterServer {
    fn drop(&mut self) {
        // Idempotent. The loop thread, on its way out, flushes and
        // closes the links and joins any recovery driver.
        self.front.stop();
    }
}
