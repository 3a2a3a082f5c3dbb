//! The readiness-driven TCP ingest front-end: one acceptor thread, a
//! small fixed pool of event-loop workers multiplexing every connection
//! over nonblocking sockets, and a trip→connection router feeding
//! score/completion callbacks back to the producer that owns each trip.
//!
//! ## Data flow
//!
//! ```text
//!                    ┌──────────── one poll tick ────────────┐
//! clients ──TADN──▶  worker: read readiness → FrameAssembler │
//!                    │   ingest frames ──▶ cross-connection  │
//!                    │                     cohort ──try_submit_cohort──▶ shards
//!                    │   admin frames  ──▶ inline barriers   │      │
//!                    │   backpressure Error ◀────────────────│◀─────┘ (queue full)
//!                    └──▶ drain dirty outbound queues ──────▶│ sockets
//!                           (encoded runs, handed over as they are;
//!                            frames_out counted at the hand-off)
//!
//! shard workers ──on_scores: one wave──▶ Router ──▶ per-conn outbound
//!   one trip-table read per wave; each        queue: runs of encoded
//!   connection's frames ENCODED HERE into     frames + a frame count
//!   one chunk, queued under one lock          (response_queue bounds the
//! shard workers ──on_complete / on_policy──▶  count; wakes the owning
//!   one frame, encoded by the pusher          worker)
//! ```
//!
//! **A reply is encoded once, by whoever produces it.** The shard hands
//! a wave's scores over in one call; the response router resolves their
//! connections under one read of the trip table, encodes each
//! connection's frames, in wave order, straight into one chunk sized to
//! them ([`crate::response_into`]), and queues it whole — one connection
//! table read and one queue lock per (wave, connection). Single replies
//! (completions, policy notices, admin replies, errors) are encoded at
//! push time onto the same queue. The queue holds bytes and a frame
//! count, never a [`Response`]; the worker moves the bytes to the socket
//! without re-encoding or copying them.
//!
//! Every worker tick coalesces the ingest frames that arrived across
//! *all* of its connections into one **cohort** handed to
//! [`FleetEngine::try_submit_cohort`] — one bounded-queue reservation per
//! target shard instead of one per event, which is where the multi-
//! connection throughput headroom comes from. Submission order inside a
//! cohort preserves each connection's arrival order, shard grouping is
//! stable, and the engine's `push_batch` step is bit-exact versus
//! event-at-a-time submission, so scores are identical to in-process
//! ingest under any connection count.
//!
//! **Backpressure is explicit**: when a target shard's bounded queue is
//! full the whole shard-group of the cohort bounces — never a prefix —
//! and each bounced event earns its producer an
//! [`ErrorCode::Backpressure`] reply naming the trip. The bounced events
//! never entered the engine, so the producer must re-send them **before
//! any later event for those trips** (see [`ErrorCode::Backpressure`]
//! for the pacing contract). The per-connection response queue is
//! bounded too; when a client stops draining responses, further
//! deliveries for it are dropped and counted in
//! [`NetStats::responses_dropped`], and once its write backlog crosses
//! [`NetConfig::write_highwater`] the worker **pauses reading** from it
//! (resuming at half the mark) so one stalled consumer throttles itself,
//! not the tick — healthy connections on the same worker keep flowing.
//!
//! **Ordering**: all responses for one connection travel one FIFO
//! outbound queue, and a shard delivers one trip's callbacks in order,
//! so a client sees its `Score` frames in per-trip segment order, each
//! trip's `TripComplete` after that trip's last `Score`, and a `Stats`
//! reply to `Flush` after every response generated by events it
//! submitted earlier (the cohort is submitted before any admin frame of
//! the same tick is handled).

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use bytes::BytesMut;
use causaltad::CausalTad;
use tad_metrics::{Counter, DeferredHistogram, Histogram, MetricsSnapshot, Registry};
use tad_serve::{
    Event, FleetConfig, FleetEngine, FleetImage, FleetSnapshot, PolicyAction, PolicyOutcome,
    ScoreUpdate, ServeError, TripId, TripOutcome,
};

use crate::evloop::EventSource;
use crate::frame::{response_into, ErrorCode, FrameError, Request, Response, SCORE_FRAME_LEN};
use crate::front::{
    ConnectionStats, FrontCounters, FrontDoor, FrontEvent, FrontListener, FrontShared, NetConfig,
    NetStats, MAX_COHORT,
};

/// Why the server could not be built or bound.
#[derive(Debug)]
pub enum NetError {
    /// Binding or configuring the listening socket failed.
    Io(std::io::Error),
    /// The fleet engine behind the server could not be built.
    Serve(ServeError),
    /// A [`NetConfig`] bound is zero ([`NetConfig::check`]); names the
    /// field.
    InvalidConfig(&'static str),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Serve(e) => write!(f, "engine error: {e}"),
            NetError::InvalidConfig(what) => write!(f, "invalid net config: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ServeError> for NetError {
    fn from(e: ServeError) -> Self {
        NetError::Serve(e)
    }
}

/// Handles into the shared registry for the `net.*` metrics this module
/// records (the front door's typed refusals — `net.malformed_frames`,
/// `net.throttled`, `net.idle_reaped`, `net.conns_rejected` — are
/// registered here too and handed to it as [`FrontCounters`]).
/// Everything is recorded from event workers only, under a strict
/// discipline: nothing may land in the registry between a
/// `MetricsRequest` reply being built and a local [`NetServer::metrics`]
/// read on a quiesced server — which is why the per-tick sample is staged
/// through a [`DeferredHistogram`] and committed at the *next* tick's
/// start, and why `frames_out` lives only in atomics.
#[derive(Clone)]
struct NetMetrics {
    /// `net.frame_decode_ns`: time decoding each request frame once its
    /// bytes were in memory (socket wait excluded).
    frame_decode_ns: Arc<Histogram>,
    /// `net.flush_roundtrip_ns`: server-side `Flush` barrier time — from
    /// receiving the frame to the `Stats` reply being queued.
    flush_roundtrip_ns: Arc<Histogram>,
    /// `net.poll_tick_ns`: time servicing one readiness tick (wait
    /// excluded). Samples publish one tick late — see the struct docs.
    poll_tick_ns: Arc<Histogram>,
    /// `net.cohort_width`: events per submitted cross-connection cohort.
    cohort_width: Arc<Histogram>,
    /// `net.cohort_conns`: distinct connections contributing to each
    /// submitted cohort (batch-width observability: >1 means the
    /// micro-batching is actually coalescing across producers).
    cohort_conns: Arc<Histogram>,
    /// `net.backpressure_replies`: bounced events (also
    /// [`NetStats::backpressure_replies`]).
    backpressure: Arc<Counter>,
    /// `net.throttled`: the front door's handle, for admission sheds.
    throttled: Arc<Counter>,
}

impl NetMetrics {
    fn register(registry: &Registry) -> (NetMetrics, FrontCounters) {
        let front = FrontCounters {
            malformed: registry.counter("net.malformed_frames"),
            throttled: registry.counter("net.throttled"),
            idle_reaped: registry.counter("net.idle_reaped"),
            conns_rejected: registry.counter("net.conns_rejected"),
        };
        let metrics = NetMetrics {
            frame_decode_ns: registry.histogram("net.frame_decode_ns"),
            flush_roundtrip_ns: registry.histogram("net.flush_roundtrip_ns"),
            poll_tick_ns: registry.histogram("net.poll_tick_ns"),
            cohort_width: registry.histogram("net.cohort_width"),
            cohort_conns: registry.histogram("net.cohort_conns"),
            backpressure: registry.counter("net.backpressure_replies"),
            throttled: Arc::clone(&front.throttled),
        };
        (metrics, front)
    }
}

/// Routes engine callbacks to the connection that owns each trip.
struct Router {
    front: Arc<FrontShared>,
    trips: RwLock<HashMap<TripId, u64>>,
}

impl Router {
    /// Claims `trip` for `conn`; false when a live connection already owns
    /// it.
    fn claim(&self, trip: TripId, conn: u64) -> bool {
        let claimed = match self.trips.write().expect("router lock").entry(trip) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(conn);
                true
            }
        };
        if claimed {
            self.front.bump_live(conn, true);
        }
        claimed
    }

    /// Drops `trip`'s claim — if `owner` is given, only when that
    /// connection holds it.
    fn release(&self, trip: TripId, owner: Option<u64>) {
        let removed = {
            let mut trips = self.trips.write().expect("router lock");
            match trips.get(&trip) {
                Some(&conn) if owner.is_none_or(|o| o == conn) => trips.remove(&trip),
                _ => None,
            }
        };
        if let Some(conn) = removed {
            self.front.bump_live(conn, false);
        }
    }

    /// The engine refused a cohort event: a start among them gives its
    /// claim back, so the producer can re-send it.
    fn release_refused(&self, entry: &CohortEntry) {
        if entry.is_start {
            self.release(entry.trip, Some(entry.conn));
        }
    }

    /// Lazily claims `trip` for `conn` when nobody owns it yet — how a
    /// producer re-attaches to its sessions after a warm restart: the
    /// restored engine already holds the session, so no `TripStart` will
    /// ever arrive on the new server, and the first connection to stream
    /// for the trip becomes its response route.
    ///
    /// A claim for a trip the engine turns out not to know (the event is
    /// silently rejected shard-side) lingers until the claiming
    /// connection closes ([`Router::unroute`] sweeps it) — the map grows
    /// with the distinct trip ids a live connection references, which is
    /// why `tad-net` assumes producers on a trusted network (see the
    /// ROADMAP's hardening follow-ons).
    fn ensure_claim(&self, trip: TripId, conn: u64) {
        if !self.trips.read().expect("router lock").contains_key(&trip) {
            self.claim(trip, conn);
        }
    }

    /// Best-effort delivery to whichever connection owns `trip`.
    fn deliver(&self, trip: TripId, resp: Response) {
        let conn = self.trips.read().expect("router lock").get(&trip).copied();
        match conn {
            Some(conn) => self.front.deliver(conn, resp),
            None => self.front.note_dropped(),
        }
    }

    /// Delivers one wave's scores: resolves every trip's connection under
    /// one read of the trip table, encodes each connection's frames — in
    /// wave order — straight into one chunk sized to them, and queues it
    /// whole. Scores of trips nobody routes are counted dropped.
    fn route_scores(&self, wave: &[ScoreUpdate]) {
        let mut routed: Vec<(u64, u32)> = Vec::with_capacity(wave.len());
        {
            let trips = self.trips.read().expect("router lock");
            routed.extend(
                wave.iter().enumerate().filter_map(|(at, update)| {
                    trips.get(&update.id).map(|&conn| (conn, at as u32))
                }),
            );
        }
        self.front.count_dropped(wave.len() - routed.len());
        // Stable, so a connection's frames keep their wave order. A wave
        // bound for one connection is grouped as it stands, and skips the
        // sort's wave-sized scratch.
        if !routed.is_sorted_by_key(|&(conn, _)| conn) {
            routed.sort_by_key(|&(conn, _)| conn);
        }
        for group in routed.chunk_by(|a, b| a.0 == b.0) {
            let mut chunk = BytesMut::with_capacity(group.len() * SCORE_FRAME_LEN);
            for &(_, at) in group {
                response_into(&Response::Score(wave[at as usize]), &mut chunk);
            }
            self.front.deliver_chunk(group[0].0, chunk, group.len());
        }
    }

    fn route_complete(&self, outcome: TripOutcome) {
        let id = outcome.id;
        self.deliver(id, Response::TripComplete(outcome.into()));
        // The trip is finished: future starts may reuse the id.
        self.release(id, None);
    }

    /// Surfaces an engine sanitization outcome to the trip's owner.
    ///
    /// The general case is a [`Response::PolicyNotice`] to whichever
    /// connection routes the trip. `QuarantinedDuplicateStart` is special:
    /// the engine refused a `TripStart` for a trip that is *live in the
    /// engine* but was not claimed on this server (a warm-restarted
    /// session being re-started by a second producer — the accept-time
    /// claim check cannot see those). Without this hook the offender's
    /// claim would linger, silently stealing the real producer's score
    /// route. Answer it with the same typed `Rejected` reply an
    /// accept-time duplicate gets, then release the claim so the true
    /// owner can re-attach. The claim is necessarily the offender's own:
    /// had anyone else held it, [`Router::claim`] would have bounced the
    /// start before it reached the engine.
    fn route_policy(&self, outcome: &PolicyOutcome) {
        let id = outcome.id;
        if outcome.action == PolicyAction::QuarantinedDuplicateStart {
            self.deliver(
                id,
                Response::error(ErrorCode::Rejected, Some(id), "trip id is live in the engine"),
            );
            self.release(id, None);
        } else {
            self.deliver(
                id,
                Response::PolicyNotice { id, action: outcome.action, seg: outcome.seg },
            );
        }
    }

    /// Frees a closed connection's routing claims so the trip ids can be
    /// re-attached by a reconnecting producer (the engine sessions
    /// themselves live on until they end or the TTL reaps them).
    fn unroute(&self, conn: u64) {
        self.trips.write().expect("router lock").retain(|_, owner| *owner != conn);
    }
}

/// Everything the event loop needs that is *not* the I/O: the engine, the
/// response router, the front door's connection table, the shared metrics
/// registry. Production wraps one of these behind [`NetServer`]; the
/// deterministic test harness builds one directly and drives the same
/// [`EventLoop`] code with scripted transports.
pub struct IngestCore {
    engine: Arc<FleetEngine>,
    router: Arc<Router>,
    front: Arc<FrontShared>,
    registry: Arc<Registry>,
    metrics: NetMetrics,
    vocab: u32,
}

impl IngestCore {
    fn build_inner(
        model: Arc<CausalTad>,
        fleet: FleetConfig,
        net: NetConfig,
        resume: Option<FleetImage>,
    ) -> Result<Arc<IngestCore>, NetError> {
        let vocab = model.vocab() as u32;

        // One registry shared by the engine and the network layer, so a
        // single `MetricsRequest` answers both `serve.*` and `net.*`.
        let registry = Arc::new(Registry::new());
        let (metrics, counters) = NetMetrics::register(&registry);
        let front = FrontShared::new(net, counters);
        let router =
            Arc::new(Router { front: Arc::clone(&front), trips: RwLock::new(HashMap::new()) });

        let mut builder =
            FleetEngine::builder(model).config(fleet).metrics_registry(Arc::clone(&registry));
        if let Some(image) = resume {
            builder = builder.resume(image);
        }
        let score_router = Arc::clone(&router);
        let complete_router = Arc::clone(&router);
        let policy_router = Arc::clone(&router);
        let engine = Arc::new(
            builder
                .on_scores(move |wave| score_router.route_scores(wave))
                .on_complete(move |outcome| complete_router.route_complete(outcome))
                .on_policy(move |outcome| policy_router.route_policy(outcome))
                .build()?,
        );

        Ok(Arc::new(IngestCore { engine, router, front, registry, metrics, vocab }))
    }

    /// Builds a core over a trained model for driving an [`EventLoop`]
    /// directly — the deterministic-harness entry point; production goes
    /// through [`NetServer::builder`].
    ///
    /// # Errors
    /// [`NetError::Serve`] when the engine cannot be built.
    pub fn build(
        model: Arc<CausalTad>,
        fleet: FleetConfig,
        net: NetConfig,
    ) -> Result<Arc<IngestCore>, NetError> {
        IngestCore::build_inner(model, fleet, net, None)
    }

    /// The fleet engine behind this core.
    pub fn engine(&self) -> &FleetEngine {
        &self.engine
    }

    /// Snapshot of every metric this core records (`serve.*` + `net.*`).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Point-in-time network-layer counters.
    pub fn net_stats(&self) -> NetStats {
        NetStats { backpressure_replies: self.metrics.backpressure.get(), ..self.front.stats() }
    }

    /// Per-connection frame counters for every connection currently open,
    /// sorted by connection id (accept order).
    pub fn connection_stats(&self) -> Vec<ConnectionStats> {
        self.front.connection_stats()
    }

    /// Tears the core down once every event loop over it has exited:
    /// drains and shuts the engine down, returning the final counters.
    pub fn finish(core: Arc<IngestCore>) -> FleetSnapshot {
        match Arc::try_unwrap(core) {
            Ok(core) => match Arc::try_unwrap(core.engine) {
                Ok(engine) => engine.shutdown(),
                // Unreachable in practice: every thread holding a clone
                // has exited. Fall back to drop-shutdown (same drain,
                // final counters read just before).
                Err(engine) => {
                    let stats = engine.stats();
                    drop(engine);
                    stats
                }
            },
            Err(core) => {
                let stats = core.engine.stats();
                drop(core);
                stats
            }
        }
    }
}

/// One queued-but-not-submitted cohort event's routing facts, for mapping
/// a bounced index back to its connection and trip.
struct CohortEntry {
    conn: u64,
    trip: TripId,
    is_start: bool,
}

/// The readiness-driven ingest loop: takes the frames a [`FrontDoor`]
/// read off every ready connection, coalesces their ingest events into
/// one cross-connection cohort per tick for
/// [`FleetEngine::try_submit_cohort`], and answers admin barriers inline;
/// the door drains the replies back to the sockets. Generic over the
/// [`EventSource`] and transport so the exact production code path runs
/// under scripted readiness schedules in tests; production uses
/// `EventLoop<PollSource, TcpStream>`.
pub struct EventLoop<S, T> {
    core: Arc<IngestCore>,
    door: FrontDoor<S, T>,
    tick_hist: DeferredHistogram,
    cohort: Vec<Event>,
    cohort_meta: Vec<CohortEntry>,
    /// `Flush` barriers decoded this tick, awaiting one shared quiesce:
    /// (connection, frame-arrival instant). A barrier storm — every
    /// producer flushing at once at the end of a round — costs one
    /// engine quiesce per *tick* instead of one per connection.
    pending_flushes: Vec<(u64, Instant)>,
}

impl<S: EventSource<T>, T: Read + Write> EventLoop<S, T> {
    /// Wraps a readiness source around a core. Connections arrive through
    /// [`EventSource::accept_injected`].
    pub fn new(core: Arc<IngestCore>, source: S) -> EventLoop<S, T> {
        let door = FrontDoor::new(Arc::clone(&core.front), source);
        EventLoop::over(core, door)
    }

    fn over(core: Arc<IngestCore>, door: FrontDoor<S, T>) -> EventLoop<S, T> {
        let tick_hist = core.metrics.poll_tick_ns.deferred();
        EventLoop {
            core,
            door,
            tick_hist,
            cohort: Vec::new(),
            cohort_meta: Vec::new(),
            pending_flushes: Vec::new(),
        }
    }

    /// Runs ticks until the source is exhausted (scripted schedules) or
    /// a stop is observed ([`FrontListener::stop`], which
    /// [`NetServer::shutdown`] calls), then closes every
    /// connection (best-effort flushing what is already queued).
    pub fn run(&mut self) {
        let mut events = Vec::new();
        while let Some(tick_start) = self.door.poll(&mut events) {
            // Publish the previous tick's staged sample *before* this
            // tick handles any frame: a `MetricsRequest` answered now
            // must match a local registry read on a then-quiesced server,
            // so no sample may land after its reply.
            self.tick_hist.commit();
            for event in events.drain(..) {
                match event {
                    FrontEvent::Frame { conn, req, started, decode_ns } => {
                        if !self.door.is_closing(conn) {
                            self.handle_frame(conn, req, started, decode_ns);
                        }
                    }
                    FrontEvent::Hangup(conn, bad_frame) => self.hangup(conn, bad_frame),
                    // This loop registers nothing of its own: a stale
                    // report for a connection reaped earlier in the tick.
                    FrontEvent::Foreign(_) => {}
                }
            }
            self.submit_cohort();
            self.drain_pending_flushes();
            for conn in self.door.finish_tick(tick_start) {
                self.core.router.unroute(conn);
            }
            self.tick_hist.stage(tick_start.elapsed().as_nanos() as u64);
        }
        self.door.teardown_all();
    }

    /// A connection is going away (EOF, a transport or framing error, or
    /// the engine closing under it): events this tick accepted from the
    /// peer must reach the engine before its claims are swept, or the
    /// engine keeps sessions with no response route.
    fn hangup(&mut self, conn: u64, bad_frame: Option<FrameError>) {
        self.submit_cohort();
        self.door.hangup(conn, bad_frame);
        self.core.router.unroute(conn);
    }

    /// Dispatches one decoded frame from `id`.
    fn handle_frame(&mut self, id: u64, req: Request, started: Instant, decode_ns: u64) {
        // Recorded before the request is handled, so the decode of a
        // `MetricsRequest` frame is visible in the snapshot it triggers.
        self.core.metrics.frame_decode_ns.record(decode_ns);
        match req {
            Request::TripStart { .. } | Request::Segment { .. } | Request::TripEnd { .. } => {
                self.handle_ingest(id, req)
            }
            Request::Flush => {
                // Deferred to one shared quiesce at the end of the tick
                // (see `drain_pending_flushes`). The barrier only gets
                // stronger: the quiesce covers everything this tick
                // accepted, including events decoded after this frame.
                self.pending_flushes.push((id, started));
            }
            admin => {
                // Barrier semantics: everything this tick accepted before
                // the admin frame must reach the engine first — including
                // any barrier replies still owed to this connection, so
                // an admin sequence like Flush-then-MetricsRequest keeps
                // its per-connection order and post-quiesce visibility.
                self.submit_cohort();
                self.drain_pending_flushes();
                self.handle_admin(id, admin);
            }
        }
    }

    /// Queues one ingest event into the cross-connection cohort (after
    /// the vocabulary and claim checks).
    fn handle_ingest(&mut self, id: u64, req: Request) {
        let core = &self.core;
        let trip = match req {
            Request::TripStart { id, .. }
            | Request::Segment { id, .. }
            | Request::TripEnd { id } => id,
            _ => unreachable!("caller dispatched an ingest request"),
        };
        // Reject events naming segments outside the model vocabulary up
        // front with a typed reply: the engine would drop them silently
        // (a stats bump only), which would strand a router claim on a
        // trip that can never complete and leave the producer guessing.
        let out_of_vocab = match req {
            Request::TripStart { source, dest, .. } => source >= core.vocab || dest >= core.vocab,
            Request::Segment { seg, .. } => seg >= core.vocab,
            _ => false,
        };
        if out_of_vocab {
            let refusal = Response::error(
                ErrorCode::Rejected,
                Some(trip),
                "segment outside the model vocabulary",
            );
            self.door.push(id, refusal);
            return;
        }
        let is_start = matches!(req, Request::TripStart { .. });
        if is_start {
            if !core.router.claim(trip, id) {
                // Another live connection owns this trip; duplicate
                // starts on the same connection are also refused (the
                // engine would reject them anyway).
                let refusal = Response::error(
                    ErrorCode::Rejected,
                    Some(trip),
                    "trip id is owned by a live session",
                );
                self.door.push(id, refusal);
                return;
            }
        } else {
            // Segment/TripEnd for a trip nobody routes yet: adopt it
            // (warm-restarted sessions never see a TripStart here).
            core.router.ensure_claim(trip, id);
        }
        let ev = req.to_event().expect("ingest requests carry events");
        self.cohort.push(ev);
        self.cohort_meta.push(CohortEntry { conn: id, trip, is_start });
        self.door.charge(id);
        if self.cohort.len() >= MAX_COHORT {
            self.submit_cohort();
        }
    }

    /// Hands the accumulated cross-connection cohort to the engine — one
    /// bounded-queue reservation per target shard — and answers every
    /// bounce with a typed reply.
    fn submit_cohort(&mut self) {
        if self.cohort.is_empty() {
            return;
        }
        let events = std::mem::take(&mut self.cohort);
        let meta = std::mem::take(&mut self.cohort_meta);
        let width = events.len() as u64;
        let mut distinct = 0u64;
        let mut last: Option<u64> = None;
        let mut seen: HashSet<u64> = HashSet::new();
        for entry in &meta {
            if last != Some(entry.conn) {
                if seen.insert(entry.conn) {
                    distinct += 1;
                }
                last = Some(entry.conn);
            }
        }
        // Inline (not deferred): a cohort is always submitted *before*
        // any admin frame of its tick is answered, so these samples are
        // in every snapshot that could observe their events.
        self.core.metrics.cohort_width.record(width);
        self.core.metrics.cohort_conns.record(distinct);
        let outcome = self.core.engine.try_submit_cohort(events);
        for entry in outcome.full.iter().map(|&idx| &meta[idx]) {
            self.core.router.release_refused(entry);
            self.core.metrics.backpressure.inc();
            if let Some(counters) = self.door.counters(entry.conn) {
                counters.backpressure_replies.fetch_add(1, Ordering::Relaxed);
            }
            // Explicit backpressure instead of unbounded buffering: the
            // event was not accepted; the client re-sends. Best-effort
            // delivery: if even the response queue is full the client is
            // not reading at all.
            self.door
                .push(entry.conn, Response::error(ErrorCode::Backpressure, Some(entry.trip), ""));
        }
        // Admission sheds: the engine refused these *new* trips at its
        // overload watermark. Same re-send contract as backpressure —
        // the events never entered the engine — but typed `Throttled`
        // with the engine's pacing hint, so a client backs off instead
        // of hammering an overloaded fleet.
        if !outcome.shed.is_empty() {
            let retry_ms = self.core.engine.admission_retry_after().as_millis() as u64;
            for entry in outcome.shed.iter().map(|&idx| &meta[idx]) {
                self.core.router.release_refused(entry);
                self.core.metrics.throttled.inc();
                self.door.push(
                    entry.conn,
                    Response::Error {
                        code: ErrorCode::Throttled,
                        trip: Some(entry.trip),
                        retry_after_ms: Some(retry_ms.max(1)),
                        detail: "admission watermark reached".to_string(),
                    },
                );
            }
        }
        for entry in outcome.closed.iter().map(|&idx| &meta[idx]) {
            self.core.router.release_refused(entry);
            self.door.push_always(
                entry.conn,
                Response::error(ErrorCode::EngineClosed, Some(entry.trip), ""),
            );
            self.hangup(entry.conn, None);
        }
    }

    /// Handles one admin (non-ingest) request inline on the worker.
    /// Deadlock-free: engine barriers deliver through the door's response
    /// queues, which never block.
    fn handle_admin(&mut self, id: u64, req: Request) {
        let engine = &self.core.engine;
        let reply = match req {
            // The capture doubles as a checkpoint: every wire snapshot
            // (re)starts the engine's delta chain, so a follow-up
            // `DeltaRequest` covers exactly the churn after this image.
            // The image itself is bit-identical to a plain capture.
            Request::SnapshotRequest => match engine.checkpoint() {
                Ok((image, _epoch)) => {
                    Response::Snapshot { image: tad_serve::image_to_bytes(&image) }
                }
                Err(e) => Response::error(ErrorCode::SnapshotFailed, None, e.to_string()),
            },
            // One shared registry behind the engine and the net layer
            // means this single reply carries `serve.*` and `net.*`
            // together.
            Request::MetricsRequest => Response::Metrics(engine.metrics()),
            Request::DeltaRequest => match engine.delta_bytes() {
                Ok(delta) => Response::Delta { delta },
                // Most commonly NoCheckpoint: delta tracking is unarmed
                // until the operator (the router's checkpoint loop) takes
                // one.
                Err(e) => Response::error(ErrorCode::SnapshotFailed, None, e.to_string()),
            },
            Request::Install { image } => {
                let delivered = tad_serve::image_from_bytes(image)
                    .map_err(|e| e.to_string())
                    .and_then(|img| engine.restore_sessions(img).map_err(|e| e.to_string()));
                match delivered {
                    Ok(sessions) => Response::Installed { sessions },
                    Err(detail) => Response::error(ErrorCode::Rejected, None, detail),
                }
            }
            Request::Drain => match engine.drain_sessions() {
                // Shard FIFO order makes this a barrier too: every score
                // for events accepted before the drain is queued ahead of
                // the Drained reply, and none of the moved sessions fire
                // completions here — they are moving, not finishing.
                Ok(image) => Response::Drained { image: tad_serve::image_to_bytes(&image) },
                Err(e) => Response::error(ErrorCode::SnapshotFailed, None, e.to_string()),
            },
            _ => unreachable!("ingest and Flush requests never reach handle_admin"),
        };
        self.door.push_always(id, reply);
    }

    /// Runs the one shared quiesce for every `Flush` barrier decoded
    /// since the last drain, then answers each flusher in arrival order.
    ///
    /// Correctness: the quiesce covers every event submitted before it —
    /// a superset of what each individual barrier promised — so each
    /// `Stats` reply still means "everything you sent before your
    /// `Flush` has been scored". What changes is cost: a barrier storm
    /// (hundreds of producers flushing at the end of a round, landing in
    /// one poll tick) pays one engine quiesce per tick, not one per
    /// connection.
    fn drain_pending_flushes(&mut self) {
        if self.pending_flushes.is_empty() {
            return;
        }
        let flushers = std::mem::take(&mut self.pending_flushes);
        match self.core.engine.flush() {
            Ok(()) => {
                for (id, started) in flushers {
                    // The quiesce barrier has passed: every response
                    // caused by events accepted before it is already in
                    // the queue, so FIFO order puts this Stats reply
                    // after all of them.
                    if !self.door.push_always(id, Response::Stats(self.core.engine.stats())) {
                        continue;
                    }
                    // Server-side barrier time: frame received → Stats
                    // reply queued. Recorded on this worker, so a later
                    // `MetricsRequest` always sees it.
                    self.core
                        .metrics
                        .flush_roundtrip_ns
                        .record(started.elapsed().as_nanos() as u64);
                }
            }
            Err(e) => {
                for (id, _) in flushers {
                    let closed = Response::error(ErrorCode::EngineClosed, None, e.to_string());
                    self.door.push_always(id, closed);
                    self.hangup(id, None);
                }
            }
        }
    }
}

/// Builder for [`NetServer`]; start from [`NetServer::builder`].
pub struct NetServerBuilder {
    model: Arc<CausalTad>,
    fleet: FleetConfig,
    net: NetConfig,
    resume: Option<FleetImage>,
}

impl NetServerBuilder {
    /// Overrides the engine tunables (shards, queue bounds, TTL, …).
    pub fn fleet_config(mut self, cfg: FleetConfig) -> Self {
        self.fleet = cfg;
        self
    }

    /// Overrides the network tunables (frame cap, worker count, budgets,
    /// …).
    pub fn net_config(mut self, cfg: NetConfig) -> Self {
        self.net = cfg;
        self
    }

    /// Seeds the engine from a [`FleetImage`] (warm restart) — typically
    /// one served over the wire by another server's `SnapshotRequest`.
    pub fn resume(mut self, image: FleetImage) -> Self {
        self.resume = Some(image);
        self
    }

    /// Binds the listening socket, builds the engine with its callbacks
    /// routed to the network layer, and starts the acceptor plus the
    /// event-loop worker pool.
    ///
    /// # Errors
    /// [`NetError::InvalidConfig`] when a [`NetConfig`] bound is zero,
    /// [`NetError::Io`] when the socket cannot be bound or a poller
    /// cannot be created, [`NetError::Serve`] when the engine cannot be
    /// built (untrained model, bad config, or an unusable resume image).
    pub fn bind(self, addr: impl ToSocketAddrs) -> Result<NetServer, NetError> {
        let NetServerBuilder { model, fleet, net, resume } = self;
        net.check().map_err(NetError::InvalidConfig)?;
        let listener = TcpListener::bind(addr)?;
        let core = IngestCore::build_inner(model, fleet, net, resume)?;
        let worker_core = Arc::clone(&core);
        let front = FrontListener::spawn(
            listener,
            Arc::clone(&core.front),
            "tad-net-ev",
            "tad-net-acceptor",
            move |door| EventLoop::over(Arc::clone(&worker_core), door).run(),
        )?;
        Ok(NetServer { core: Some(core), front })
    }
}

/// A running TCP ingest front-end over a [`FleetEngine`]. Construct with
/// [`NetServer::builder`]; see the module docs for the data flow and the
/// crate docs for the wire format.
pub struct NetServer {
    core: Option<Arc<IngestCore>>,
    front: FrontListener,
}

impl NetServer {
    /// Starts building a server over a trained model. Bind to port 0 to
    /// let the OS pick a free port (read it back with
    /// [`NetServer::local_addr`]).
    pub fn builder(model: Arc<CausalTad>) -> NetServerBuilder {
        NetServerBuilder {
            model,
            fleet: FleetConfig::default(),
            net: NetConfig::default(),
            resume: None,
        }
    }

    fn core(&self) -> &Arc<IngestCore> {
        self.core.as_ref().expect("core lives until shutdown")
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The fleet engine behind the server — for in-process snapshots,
    /// stats handles, or mixing local [`FleetEngine::submit`] traffic with
    /// network ingest.
    pub fn engine(&self) -> &FleetEngine {
        self.core().engine()
    }

    /// Point-in-time engine counters (shorthand for
    /// `self.engine().stats()`).
    pub fn stats(&self) -> FleetSnapshot {
        self.engine().stats()
    }

    /// Point-in-time network-layer counters.
    pub fn net_stats(&self) -> NetStats {
        self.core().net_stats()
    }

    /// Per-connection frame counters for every connection currently open,
    /// sorted by connection id (accept order). Closed connections are
    /// gone from this view; their frames remain in the [`NetStats`]
    /// totals.
    pub fn connection_stats(&self) -> Vec<ConnectionStats> {
        self.core().connection_stats()
    }

    /// Snapshot of every metric this server records — the same snapshot a
    /// [`Request::MetricsRequest`] returns over the wire (`serve.*` from
    /// the engine's shards plus `net.*` from the front-end; they share one
    /// registry).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core().registry.snapshot()
    }

    /// Stops accepting, closes every connection, drains and shuts the
    /// engine down (flushing still-live sessions to their owners where
    /// possible), and returns the final engine counters.
    pub fn shutdown(mut self) -> FleetSnapshot {
        self.front.stop();
        let core = self.core.take().expect("first shutdown call");
        IngestCore::finish(core)
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.core.is_some() {
            self.front.stop();
            // Dropping the core's engine Arc drains and joins the shard
            // workers (FleetEngine's own Drop).
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::heap_requests;
    use crate::evloop::{Interest, Readiness};
    use crate::frame::response_to_bytes;
    use std::sync::Mutex;
    use std::time::Duration;

    /// A transport that never has anything to read and keeps what is
    /// written to it (in room reserved up front: a write allocates
    /// nothing).
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Read for Sink {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::WouldBlock.into())
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("sink").extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A source that hands over its transports at the first tick and
    /// never reports readiness.
    struct Quiet(Vec<Sink>);

    impl EventSource<Sink> for Quiet {
        fn register(&mut self, _: u64, _: &Sink, _: Interest) -> std::io::Result<()> {
            Ok(())
        }

        fn reregister(&mut self, _: u64, _: &Sink, _: Interest) -> std::io::Result<()> {
            Ok(())
        }

        fn deregister(&mut self, _: u64, _: &Sink) -> std::io::Result<()> {
            Ok(())
        }

        fn wait(&mut self, out: &mut Vec<Readiness>, _: Option<Duration>) -> std::io::Result<bool> {
            out.clear();
            Ok(true)
        }

        fn accept_injected(&mut self) -> Vec<Sink> {
            std::mem::take(&mut self.0)
        }
    }

    /// The reply path's allocation contract: a wave's delivery — resolve,
    /// encode, queue — asks the heap a constant number of times however
    /// many scores it carries, and moving the queued bytes to the
    /// transport asks it nothing.
    #[test]
    fn a_wave_is_delivered_in_a_constant_number_of_allocations_and_pumped_in_none() {
        const CONN: u64 = 0;
        let written = Arc::new(Mutex::new(Vec::with_capacity(1 << 20)));
        let front = FrontShared::new(NetConfig::default(), FrontCounters::default());
        let mut door = FrontDoor::new(Arc::clone(&front), Quiet(vec![Sink(Arc::clone(&written))]));
        let tick = door.poll(&mut Vec::new()).expect("the first tick adopts the connection");
        let router = Router { front: Arc::clone(&front), trips: RwLock::new(HashMap::new()) };
        let wave = |width: u64, seq: u32| -> Vec<ScoreUpdate> {
            let score =
                |id| ScoreUpdate { id, seq, segment: 7, score: 1.5, nll: 0.5, log_scale: 0.25 };
            (0..width).map(score).collect()
        };
        for update in wave(1024, 0) {
            assert!(router.claim(update.id, CONN));
        }

        // The first wave grows what is kept across waves (the queue, the
        // dirty list, the connection's run queue); the widths after it
        // differ sixteenfold and must cost the same.
        let mut requests = Vec::new();
        let mut expected = Vec::new();
        for (seq, width) in [(0, 1024), (1, 64), (2, 1024)] {
            let wave = wave(width, seq);
            let ((), delivering) = heap_requests(|| router.route_scores(&wave));
            let (pumped, pumping) = heap_requests(|| door.pump(CONN));
            pumped.expect("the sink takes everything");
            requests.push((delivering, pumping));
            expected
                .extend(wave.iter().flat_map(|u| response_to_bytes(&Response::Score(*u)).to_vec()));
        }
        assert_eq!(requests[1], requests[2], "allocations grew with the wave");
        let (delivering, pumping) = requests[2];
        assert!((1..=4).contains(&delivering), "{delivering} allocations to deliver a wave");
        assert_eq!(pumping, 0, "the pump allocated");

        let stats = front.stats();
        assert_eq!((stats.frames_out, stats.responses_dropped), (2112, 0));
        door.finish_tick(tick);
        assert!(*written.lock().expect("sink") == expected, "every frame arrived, in wave order");
    }
}
