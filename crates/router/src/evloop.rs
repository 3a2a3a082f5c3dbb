//! The router's one event loop: a single thread that reads producers
//! (through a [`tad_net::FrontDoor`]), reads and writes every backend
//! link (registered on the door's own readiness source), and owns all
//! routing state — the links, the partition map, the standby pool, the
//! trip table, the barriers in flight — as plain fields.
//!
//! ```text
//!  ┌──────────────────────── one tick of RouterLoop ────────────────────────┐
//!  │ door.poll ─▶ producer frames ─▶ partition map ─▶ link write buffer ────┼─▶ backends
//!  │          └─▶ link readiness  ─▶ peek / decode ─▶ trip table ─▶ door    │◀─ replies
//!  │ inbox (admin scripts' closures) ─▶ settle: replay parked, flush links, │
//!  │                                     reap dead links, set the read-hold │
//!  │ door.finish_tick: drain producers' response queues to their sockets    │
//!  └────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Other threads — [`crate::RouterServer`]'s admin calls and the recovery
//! driver of a failover — never touch that state. They post closures to
//! the loop's inbox ([`Handle::on_loop`]) and wait for the result; a
//! closure runs between two frames, so whatever it does is atomic with
//! respect to routing.
//!
//! **The hold.** While the topology is changing — from the moment the
//! loop reaps a recoverable link until its recovery driver finishes, or
//! for the length of a handoff/rebalance script — the loop is *held*: the
//! door reads no producer socket, and frames already decoded this tick
//! (ingest and barriers alike) wait in one FIFO `parked` queue. On
//! release they replay, in arrival order, through the same `handle_front`
//! as live frames, against the new map. A frame parked longer than
//! [`crate::RouterConfig::failover_wait`] is answered with a typed
//! `EngineClosed` instead. The door's read-hold (without parking) also
//! engages while any mapped link's write backlog is at
//! [`WRITE_HIGHWATER`], and lifts at half: a stalled backend pauses
//! producers, it never blocks the loop.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use tad_metrics::MetricsSnapshot;
use tad_net::{
    peek_score, response_from_frame, response_into, ErrorCode, EventSource, FrameError,
    FrontCounters, FrontDoor, FrontEvent, FrontShared, ReadStatus, Readiness, Request, Response,
    READ_BUDGET,
};
use tad_serve::{image_from_bytes, image_to_bytes, FleetImage, FleetSnapshot, TripId};

use crate::backend::{Link, PendingEntry, LINK_KEY, WRITE_HIGHWATER};
use crate::journal::Journal;
use crate::partition::backend_for;
use crate::server::{front_config, recover, BarrierKind, RouterConfig, RouterMetrics, RouterStats};

/// Where a live trip's events go and who gets its replies.
pub(crate) struct TripRoute {
    /// The front connection that owns the trip's responses.
    conn: u64,
    /// The backend link currently serving the trip's partition; updated
    /// at every map flip.
    pub(crate) backend: u32,
    /// An event was forwarded after the claim was created — while false
    /// the claim is start-only, so a refused/bounced `TripStart` can
    /// release it without stranding the id.
    forwarded: bool,
    /// Delivered-score high-water mark: `seq + 1` of the last `Score`
    /// delivered to the front connection. During journal replay this is
    /// what separates duplicates (suppressed) from scores the producer
    /// never saw (delivered) — the exactly-once guarantee.
    delivered: u32,
    /// True while the trip's backend is being failed over; gates the
    /// replay suppression logic.
    pub(crate) replaying: bool,
}

impl TripRoute {
    fn new(conn: u64, backend: u32) -> Self {
        TripRoute { conn, backend, forwarded: false, delivered: 0, replaying: false }
    }
}

/// Which backend link serves each partition, and a flip counter.
///
/// A trip's partition is `backend_for(id, slots.len())`; `slots[k]` is
/// the link index currently serving partition `k`. The slots are always
/// distinct links. `epoch` bumps on every flip (failover, handoff,
/// rebalance), which makes "did the topology change under me" a cheap
/// question for tests and operators.
pub(crate) struct PartitionMap {
    pub(crate) epoch: u64,
    pub(crate) slots: Vec<u32>,
}

/// One fleet-wide barrier in flight: a front `Flush`/`SnapshotRequest`/
/// `MetricsRequest` fanned out to every mapped live backend, collecting
/// one contribution (a reply or a failure) per backend before answering
/// the front connection.
struct Barrier {
    kind: BarrierKind,
    conn: u64,
    expected: usize,
    got: usize,
    stats: Vec<FleetSnapshot>,
    images: Vec<(u32, Bytes)>,
    metrics: Vec<MetricsSnapshot>,
    failed: Option<(ErrorCode, String)>,
}

/// A producer frame decoded while the loop was held.
struct Parked {
    at: Instant,
    conn: u64,
    req: Request,
}

/// A closure posted to the loop.
type Job<S, T> = Box<dyn FnOnce(&mut RouterLoop<S, T>) + Send>;

struct Inbox<S, T> {
    /// `None` once the loop has exited: late posts are dropped, which
    /// their senders observe as a closed reply channel.
    jobs: Option<Vec<Job<S, T>>>,
    /// Makes the loop's wait return; installed when the loop is built.
    wake: Option<Arc<dyn Fn() + Send + Sync>>,
}

/// What the threads around a router loop share with it: the inbox they
/// post closures to, the serialiser of the admin scripts, and the
/// router's metrics (lock-free handles).
pub(crate) struct Handle<S, T> {
    inbox: Mutex<Inbox<S, T>>,
    /// Serializes the admin scripts (checkpoint sweeps, handoffs,
    /// rebalances, failover recovery) against each other.
    pub(crate) admin: Mutex<()>,
    /// True when the router was built with standbys: journals record and
    /// dead actives are promoted over.
    pub(crate) journaling: bool,
    pub(crate) metrics: RouterMetrics,
}

impl<S, T> Handle<S, T> {
    pub(crate) fn new(num_links: usize, journaling: bool) -> Self {
        Handle {
            inbox: Mutex::new(Inbox { jobs: Some(Vec::new()), wake: None }),
            admin: Mutex::new(()),
            journaling,
            metrics: RouterMetrics::register(num_links),
        }
    }

    /// Queues `job` for the loop's next inbox pass (dropped if the loop
    /// has exited).
    pub(crate) fn post(&self, job: Job<S, T>) {
        let wake = {
            let mut inbox = self.inbox.lock().expect("inbox lock");
            let Some(jobs) = &mut inbox.jobs else { return };
            jobs.push(job);
            inbox.wake.clone()
        };
        if let Some(wake) = wake {
            wake();
        }
    }

    /// Runs `f` on the loop thread, between two frames, and returns its
    /// result; `None` if the loop has exited (shutdown). Never call it
    /// from the loop thread itself.
    pub(crate) fn on_loop<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut RouterLoop<S, T>) -> R + Send + 'static,
    ) -> Option<R> {
        let (tx, rx) = sync_channel(1);
        self.post(Box::new(move |router| {
            let _ = tx.send(f(router));
        }));
        rx.recv().ok()
    }
}

/// The router's event loop: one thread that reads producers through a
/// [`tad_net::FrontDoor`], reads and writes every backend link on the
/// door's own readiness source, and owns all routing state as plain
/// fields (the crate docs' "One loop"). Production runs one, over kernel
/// readiness and TCP sockets, on the front door's worker thread
/// ([`crate::RouterServer`] builds it); the deterministic harness runs it
/// over scripted I/O with [`RouterLoop::new`].
pub struct RouterLoop<S, T> {
    door: FrontDoor<S, T>,
    /// The producer side's counters (accepted/open connections, dropped
    /// responses).
    front: Arc<FrontShared>,
    handle: Arc<Handle<S, T>>,
    pub(crate) links: Vec<Link<T>>,
    pub(crate) map: PartitionMap,
    /// Standby links available for promotion, in builder order.
    pub(crate) standbys: Vec<u32>,
    pub(crate) trips: HashMap<TripId, TripRoute>,
    barriers: HashMap<u64, Barrier>,
    next_barrier: u64,
    /// Topology changes in progress (failovers, a handoff or rebalance
    /// script). While nonzero the loop is held.
    pub(crate) holds: usize,
    parked: VecDeque<Parked>,
    /// A mapped link's write backlog crossed [`WRITE_HIGHWATER`] and has
    /// not drained to half yet.
    backlogged: bool,
    /// Recovery drivers this loop spawned; joined when it exits.
    drivers: Vec<JoinHandle<()>>,
    pub(crate) failovers: u64,
    pub(crate) last_recovery_micros: u64,
    failover_wait: Duration,
    /// The producer connection replies are being gathered for, and how
    /// many. Consecutive replies to the same connection — a backend wave
    /// relayed to its owner — reach that connection's queue as one chunk
    /// ([`RouterLoop::flush_replies`]).
    replies: Option<(u64, usize)>,
    /// The gathered replies' frames, back to back. The buffer is kept
    /// from chunk to chunk (each leaves as an exact-size copy), so relaying
    /// a tick's replies — bounded by the links' read budget — asks the
    /// heap for one chunk, whatever their number.
    gathered: BytesMut,
}

impl<S, T> RouterLoop<S, T>
where
    S: EventSource<T> + 'static,
    T: Read + Write + 'static,
{
    /// A router loop over `source`, with `links` as its already-connected
    /// backend transports: the first `actives` are the initial partition
    /// map, in order, the rest are standbys. Producer transports arrive
    /// through [`EventSource::accept_injected`]; a link's readiness is
    /// expected under [`RouterLoop::link_key`].
    pub fn new(source: S, links: Vec<T>, actives: usize, cfg: &RouterConfig) -> RouterLoop<S, T> {
        let front = FrontShared::new(front_config(cfg), FrontCounters::default());
        let door = FrontDoor::new(Arc::clone(&front), source);
        let handle = Arc::new(Handle::new(links.len(), links.len() > actives));
        let mut router = RouterLoop::over(door, front, handle, cfg.failover_wait);
        router.adopt_links(links, actives, cfg);
        router
    }

    /// The loop without its links (they follow through the inbox, see
    /// [`RouterLoop::adopt_links`]).
    pub(crate) fn over(
        mut door: FrontDoor<S, T>,
        front: Arc<FrontShared>,
        handle: Arc<Handle<S, T>>,
        failover_wait: Duration,
    ) -> RouterLoop<S, T> {
        handle.inbox.lock().expect("inbox lock").wake = Some(door.source_mut().wake_handle());
        RouterLoop {
            door,
            front,
            handle,
            links: Vec::new(),
            map: PartitionMap { epoch: 0, slots: Vec::new() },
            standbys: Vec::new(),
            trips: HashMap::new(),
            barriers: HashMap::new(),
            next_barrier: 0,
            holds: 0,
            parked: VecDeque::new(),
            backlogged: false,
            drivers: Vec::new(),
            failovers: 0,
            last_recovery_micros: 0,
            failover_wait,
            replies: None,
            gathered: BytesMut::new(),
        }
    }

    /// Registers the backend transports on the loop's source and lays
    /// out the initial map. Runs before the first producer frame is read.
    pub(crate) fn adopt_links(&mut self, links: Vec<T>, actives: usize, cfg: &RouterConfig) {
        let total = links.len() as u32;
        for (idx, io) in links.into_iter().enumerate() {
            let journal = Journal::new(cfg.journal_limit, self.handle.journaling);
            let source = self.door.source_mut();
            self.links.push(Link::new(source, idx as u32, io, cfg.max_frame_len, journal));
        }
        self.map.slots = (0..actives as u32).collect();
        self.standbys =
            (actives as u32..total).filter(|&s| self.links[s as usize].alive()).collect();
    }

    /// The key link `idx`'s transport is registered under on the source.
    pub fn link_key(idx: usize) -> u64 {
        LINK_KEY | idx as u64
    }

    /// Runs ticks until the source is exhausted (scripted schedules) or
    /// the front door's shutdown is requested, then closes every
    /// connection (best-effort flushing what is already queued) and
    /// joins the recovery drivers it spawned.
    pub fn run(&mut self) {
        let mut events = Vec::new();
        let mut tick_start = Instant::now();
        loop {
            // Closures first — they may queue frames, flip the map or
            // release the hold — then everything the tick left to settle,
            // then the producers' replies, and only then the next wait.
            self.run_inbox();
            self.settle(tick_start);
            self.flush_replies();
            for conn in self.door.finish_tick(tick_start) {
                self.unroute_front(conn);
            }
            let Some(started) = self.door.poll(&mut events) else { break };
            tick_start = started;
            for event in events.drain(..) {
                match event {
                    FrontEvent::Frame { conn, req, .. } => self.on_frame(conn, req, tick_start),
                    FrontEvent::Hangup(conn, bad_frame) => {
                        // The door queues its own parting reply: what was
                        // gathered for the connection goes first.
                        self.flush_replies();
                        self.door.hangup(conn, bad_frame);
                        self.unroute_front(conn);
                    }
                    FrontEvent::Foreign(ready) => self.on_link_ready(ready),
                }
            }
        }
        for (idx, link) in self.links.iter_mut().enumerate() {
            let _ = link.flush(self.door.source_mut(), idx as u32);
            // Dropping a staged admin entry closes its reply channel:
            // whoever waits on it sees the link as lost.
            link.pending.clear();
        }
        self.flush_replies();
        self.door.teardown_all();
        // Close the inbox (dropping what is queued) so drivers and admin
        // callers stop waiting on a loop that no longer runs.
        self.handle.inbox.lock().expect("inbox lock").jobs = None;
        for driver in self.drivers.drain(..) {
            let _ = driver.join();
        }
    }

    fn run_inbox(&mut self) {
        let jobs = match &mut self.handle.inbox.lock().expect("inbox lock").jobs {
            Some(jobs) => std::mem::take(jobs),
            None => return,
        };
        for job in jobs {
            job(self);
        }
    }

    /// End-of-tick bookkeeping for the router's own half: answer parked
    /// frames that waited too long, replay the rest once the hold is
    /// gone, push every link's backlog toward its socket (reaping links
    /// that fail), and tell the door whether producers may be read.
    fn settle(&mut self, now: Instant) {
        while let Some(parked) = self.parked.front() {
            let expired = now.duration_since(parked.at) >= self.failover_wait;
            if self.holds > 0 && !expired {
                break;
            }
            let Parked { conn, req, .. } = self.parked.pop_front().expect("front was checked");
            // A connection that went away while its frames were parked
            // takes them with it.
            if self.door.is_closing(conn) {
                continue;
            }
            if expired {
                self.expire(conn, req);
            } else {
                self.handle_front(conn, req);
            }
        }
        for idx in 0..self.links.len() as u32 {
            if self.links[idx as usize].flush(self.door.source_mut(), idx).is_err() {
                self.link_down(idx);
            }
        }
        let mark = if self.backlogged { WRITE_HIGHWATER / 2 } else { WRITE_HIGHWATER };
        self.backlogged = self.map.slots.iter().any(|&l| self.links[l as usize].backlog() >= mark);
        self.door.hold_reads(self.holds > 0 || self.backlogged);
    }

    /// One decoded producer frame: handled now, or parked while held.
    fn on_frame(&mut self, conn: u64, req: Request, now: Instant) {
        if self.door.is_closing(conn) {
            return;
        }
        if self.holds > 0 {
            self.parked.push_back(Parked { at: now, conn, req });
        } else {
            self.handle_front(conn, req);
        }
    }

    /// A parked frame outlived `failover_wait`: the producer gets the
    /// typed error a dead backend without a standby would have given it.
    fn expire(&mut self, conn: u64, req: Request) {
        let resp = match req {
            Request::TripStart { id, .. }
            | Request::Segment { id, .. }
            | Request::TripEnd { id } => backend_down_error(id, self.link_for(id)),
            _ => Response::error(ErrorCode::EngineClosed, None, "topology change timed out"),
        };
        self.deliver(conn, resp);
    }

    /// Readiness for a key the door does not own: a backend link (or a
    /// stale report for a producer connection reaped this tick).
    fn on_link_ready(&mut self, ready: Readiness) {
        let idx = (ready.key & !LINK_KEY) as u32;
        if ready.key & LINK_KEY == 0 || idx as usize >= self.links.len() {
            return;
        }
        if ready.writable && self.links[idx as usize].flush(self.door.source_mut(), idx).is_err() {
            self.link_down(idx);
            return;
        }
        if ready.readable {
            // The read's visitor is the loop itself, so the connection is
            // taken out of its link for the length of the read. Fan-in
            // touches a link's pending queue, journal and replay flag,
            // never its connection.
            let Some(mut conn) = self.links[idx as usize].conn.take() else { return };
            let read = conn.lend_frames(READ_BUDGET, |frame| self.on_backend_frame(idx, frame));
            self.links[idx as usize].conn = Some(conn);
            // EOF, a framing fault, a transport error, or a frame that does
            // not verify or decode: the reply stream cannot be trusted past
            // it. Dispatch stopped there — a lost reply would misalign the
            // pending FIFO — and the link goes down.
            if !matches!(read, Ok(ReadStatus::WouldBlock | ReadStatus::BudgetSpent)) {
                self.link_down(idx);
            }
        }
    }

    /// The buffer gathering replies for `conn`, with their frame count;
    /// whatever was gathered for another connection is queued first, so
    /// replies reach the door in the order they were produced.
    fn replies_for(&mut self, conn: u64) -> (&mut BytesMut, &mut usize) {
        if self.replies.is_some_and(|(open, _)| open != conn) {
            self.flush_replies();
        }
        let (_, frames) = self.replies.get_or_insert((conn, 0));
        (&mut self.gathered, frames)
    }

    /// Hands the gathered replies to their connection's queue as one
    /// exact-size chunk (the door counts frames that cannot be queued —
    /// connection gone, or its queue full — as dropped). Runs before
    /// anything else touches a producer's queue: at the end of every tick
    /// and ahead of the door's own parting replies.
    fn flush_replies(&mut self) {
        if let Some((conn, frames)) = self.replies.take() {
            let mut chunk = BytesMut::with_capacity(self.gathered.len());
            chunk.put_slice(&self.gathered);
            self.door.push_chunk(conn, chunk, frames);
            self.gathered.truncate(0);
            if self.gathered.capacity() > 2 * READ_BUDGET {
                // A burst no read bounds (a dead backend's errors for
                // every trip it served) leaves no buffer its size behind.
                self.gathered = BytesMut::new();
            }
        }
    }

    /// Queues a response for front connection `conn`.
    fn deliver(&mut self, conn: u64, resp: Response) {
        let (chunk, frames) = self.replies_for(conn);
        response_into(&resp, chunk);
        *frames += 1;
    }

    /// Frees a closed front connection's routing claims so a reconnecting
    /// producer can re-attach to its trips (the backend sessions live on
    /// until they end or their TTL reaps them).
    fn unroute_front(&mut self, conn: u64) {
        self.trips.retain(|_, route| route.conn != conn);
    }

    /// The link currently serving `id`'s partition.
    fn link_for(&self, id: TripId) -> u32 {
        self.map.slots[backend_for(id, self.map.slots.len() as u32) as usize]
    }

    // -- the producer side: routing ------------------------------------

    fn handle_front(&mut self, conn: u64, req: Request) {
        match req {
            Request::Flush => self.handle_barrier(conn, BarrierKind::Flush),
            Request::SnapshotRequest => self.handle_barrier(conn, BarrierKind::Snapshot),
            Request::MetricsRequest => self.handle_barrier(conn, BarrierKind::Metrics),
            Request::DeltaRequest | Request::Install { .. } | Request::Drain => {
                // Availability-tier admin frames are point-to-point router↔
                // backend operations; there is no meaningful fleet-wide
                // semantics for them at the front door, so they fail typed
                // instead of being misrouted.
                let refusal = "admin frame is not routable through the router front door";
                self.deliver(conn, Response::error(ErrorCode::Rejected, None, refusal));
            }
            Request::TripStart { id, .. } => self.forward_ingest(conn, id, true, req),
            Request::Segment { id, .. } | Request::TripEnd { id } => {
                self.forward_ingest(conn, id, false, req)
            }
        }
    }

    /// Routes one ingest frame through the partition map onto its link's
    /// write buffer. A dead link answers at once with a typed error (the
    /// no-standby contract): with a standby the frame never gets here
    /// while its link is being failed over — it is parked by the hold the
    /// loop engaged in the same step that reaped the link.
    fn forward_ingest(&mut self, conn: u64, id: TripId, is_start: bool, req: Request) {
        let link_idx = self.link_for(id);
        if !self.links[link_idx as usize].alive() {
            self.deliver(conn, backend_down_error(id, link_idx));
            return;
        }
        match self.trips.entry(id) {
            Entry::Occupied(_) if is_start => {
                // Another live connection owns this trip; duplicate
                // starts on the same connection are also refused (the
                // backend engine would reject them anyway).
                let refusal = "trip id is owned by a live session";
                self.deliver(conn, Response::error(ErrorCode::Rejected, Some(id), refusal));
                return;
            }
            Entry::Occupied(mut route) => {
                let route = route.get_mut();
                route.forwarded = true;
                route.backend = link_idx;
            }
            Entry::Vacant(slot) => {
                // A start claims the trip. Anything else with no route is
                // the lazy re-attach after a routed warm restart — the
                // restored backend already holds the session, so no
                // TripStart will ever arrive and the first connection to
                // stream for the trip becomes its response route (mirrors
                // the single-server behaviour in tad-net).
                slot.insert(TripRoute::new(conn, link_idx)).forwarded = !is_start;
            }
        }
        let forward_started = Instant::now();
        let link = &mut self.links[link_idx as usize];
        link.queue(&req);
        link.journal.record(&req);
        // Encode-and-append cost only: a slow socket shows as the link's
        // write backlog, never as time spent here.
        let ns = forward_started.elapsed().as_nanos() as u64;
        self.handle.metrics.forward_ns.record(ns);
        self.handle.metrics.per_backend[link_idx as usize].record(ns);
    }

    /// Opens a fleet-wide barrier: one frame to every mapped live
    /// backend, each staged in that link's pending queue in the same
    /// step. Nothing can interleave — no reply, no map flip — so the
    /// barrier sees every session exactly once, all on one topology.
    fn handle_barrier(&mut self, conn: u64, kind: BarrierKind) {
        let live: Vec<u32> =
            self.map.slots.iter().copied().filter(|&l| self.links[l as usize].alive()).collect();
        if live.is_empty() {
            // No live backend: answer directly and hang up.
            self.deliver(conn, Response::error(ErrorCode::EngineClosed, None, "no live backends"));
            self.door.close(conn);
            self.unroute_front(conn);
            return;
        }
        let bid = self.next_barrier;
        self.next_barrier += 1;
        self.barriers.insert(
            bid,
            Barrier {
                kind,
                conn,
                expected: live.len(),
                got: 0,
                stats: Vec::new(),
                images: Vec::new(),
                metrics: Vec::new(),
                failed: None,
            },
        );
        self.handle.metrics.fanin_depth.record(self.barriers.len() as u64);
        for idx in live {
            self.stage_barrier(idx, kind, bid);
        }
    }

    /// Stages barrier `bid` on live link `idx` and queues its frame.
    pub(crate) fn stage_barrier(&mut self, idx: u32, kind: BarrierKind, bid: u64) {
        let link = &mut self.links[idx as usize];
        link.pending.push_back(PendingEntry::Barrier(kind, bid));
        link.queue(&kind.frame());
        if matches!(kind, BarrierKind::Snapshot) {
            // The backend answers a SnapshotRequest by re-arming its
            // delta chain at an epoch the router never learns: the
            // journal's chain linkage is broken until the next full
            // capture.
            link.journal.break_chain();
        }
    }

    /// Stages a router-driven round-trip on link `idx`: pending entry,
    /// frame, and `staged` (journal bookkeeping tied to the frame's exact
    /// wire position) in one step. The reply — or the reason there will
    /// be none, if the link dies first — arrives on `entry`'s channel.
    ///
    /// # Errors
    /// The link is already down; nothing was staged.
    pub(crate) fn stage_admin<R>(
        &mut self,
        idx: u32,
        frame: &Request,
        entry: PendingEntry,
        staged: impl FnOnce(&mut Journal) -> R,
    ) -> Result<R, String> {
        let link = &mut self.links[idx as usize];
        if !link.alive() {
            return Err(format!("backend {idx} is down"));
        }
        link.pending.push_back(entry);
        link.queue(frame);
        Ok(staged(&mut link.journal))
    }

    // -- the backend side: fan-in --------------------------------------

    /// A response had no front connection to go to — unless link `idx` is
    /// the target of a journal replay, where a reply for a trip whose
    /// route is long gone (it completed pre-crash) is expected.
    fn unrouted(&self, idx: u32) {
        if self.links[idx as usize].replaying {
            self.suppressed();
        } else {
            self.front.note_dropped();
        }
    }

    fn suppressed(&self) {
        self.handle.metrics.replay_suppressed.add(1);
    }

    /// Resolves a pending entry that will never get its reply.
    pub(crate) fn fail_entry(&mut self, entry: PendingEntry, code: ErrorCode, detail: String) {
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
    fn desync(&mut self, entry: PendingEntry) {
        self.front.note_dropped();
        self.fail_entry(
            entry,
            ErrorCode::EngineClosed,
            "backend reply stream desynchronized".to_string(),
        );
    }

    /// Fan-in of one raw frame from backend link `idx`, lent out of the
    /// link's read buffer: a `Score` is relayed as the bytes it arrived
    /// in, every other reply is decoded.
    fn on_backend_frame(&mut self, idx: u32, frame: &[u8]) -> Result<(), FrameError> {
        match peek_score(frame)? {
            Some((id, seq)) => self.on_backend_score(idx, id, seq, frame),
            None => self.on_backend_response(idx, response_from_frame(frame)?),
        }
        Ok(())
    }

    /// Fan-in of a verified `Score` frame from backend link `idx`: `id`
    /// and `seq` were read out of `frame`, which goes to the owning
    /// producer connection as the bytes the backend encoded.
    fn on_backend_score(&mut self, idx: u32, id: TripId, seq: u32, frame: &[u8]) {
        match self.trips.get_mut(&id) {
            // During replay the per-trip delivered high-water mark is
            // the duplicate filter: anything below it was already
            // delivered pre-crash.
            Some(route) if route.replaying && seq < route.delivered => self.suppressed(),
            Some(route) => {
                route.delivered = seq + 1;
                let conn = route.conn;
                let (chunk, frames) = self.replies_for(conn);
                chunk.put_slice(frame);
                *frames += 1;
            }
            None => self.unrouted(idx),
        }
    }

    /// Fan-in: one decoded frame arrived from backend link `idx`.
    fn on_backend_response(&mut self, idx: u32, resp: Response) {
        match resp {
            Response::Score(_) => unreachable!("a Score frame is relayed by on_backend_score"),
            Response::TripComplete(tc) => {
                // The trip is finished: forget the route so the id can be
                // started again later.
                match self.trips.remove(&tc.id) {
                    Some(route) => self.deliver(route.conn, Response::TripComplete(tc)),
                    None => self.unrouted(idx),
                }
            }
            Response::PolicyNotice { id, action, seg } => {
                // Sanitization outcomes are trip-scoped, like scores: fan
                // them in to whichever front connection owns the trip. A
                // replaying route already saw its pre-crash notices, and
                // notices carry no sequence to dedup on, so replay
                // suppresses them wholesale.
                match self.trips.get(&id) {
                    Some(route) if route.replaying => self.suppressed(),
                    Some(route) => {
                        let conn = route.conn;
                        self.deliver(conn, Response::PolicyNotice { id, action, seg })
                    }
                    None => self.unrouted(idx),
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
            | Response::Drained { .. }) => match self.links[idx as usize].pending.pop_front() {
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
                    self.links[idx as usize].journal.poison();
                }
                if matches!(code, ErrorCode::Throttled) {
                    // Per-backend throttle accounting: the router is how
                    // a fleet operator sees *which* backend is shedding.
                    self.handle.metrics.throttled.add(1);
                    self.handle.metrics.per_backend_throttled[idx as usize].add(1);
                }
                match self.trips.get(&id) {
                    // Replay-induced (e.g. a replayed TripStart for a
                    // session already in the installed image): the
                    // producer never sent this frame post-crash, so it
                    // must not see an error for it.
                    Some(route) if route.replaying => self.suppressed(),
                    Some(route) => {
                        let conn = route.conn;
                        // A refused, bounced, or shed TripStart (nothing
                        // forwarded after the claim) must not strand its
                        // id: the producer will retry it.
                        if !route.forwarded
                            && matches!(
                                code,
                                ErrorCode::Rejected
                                    | ErrorCode::Backpressure
                                    | ErrorCode::Throttled
                            )
                        {
                            self.trips.remove(&id);
                        }
                        // `retry_after_ms` rides through untouched: the
                        // producer's pacing hint comes from the backend
                        // that shed the frame.
                        self.deliver(
                            conn,
                            Response::Error { code, trip: Some(id), retry_after_ms, detail },
                        );
                    }
                    None => self.unrouted(idx),
                }
            }
            Response::Error { code, trip: None, retry_after_ms: _, detail } => match code {
                // A trip-less BadFrame/Backpressure/Throttled answers
                // nothing in the pending queue (throttle notices pace the
                // router's own backend link, they do not consume an admin
                // slot); popping here would desynchronize the queue.
                ErrorCode::BadFrame | ErrorCode::Backpressure => self.front.note_dropped(),
                ErrorCode::Throttled => {
                    self.handle.metrics.throttled.add(1);
                    self.handle.metrics.per_backend_throttled[idx as usize].add(1);
                    self.front.note_dropped();
                }
                // SnapshotFailed / EngineClosed / Rejected each answer
                // exactly the admin request at the head of the queue.
                _ => match self.links[idx as usize].pending.pop_front() {
                    Some(entry) => self.fail_entry(entry, code, detail),
                    None => self.front.note_dropped(),
                },
            },
        }
    }

    /// Records one backend's contribution (a reply or a failure) and
    /// completes the barrier once all expected backends answered.
    fn contribute(&mut self, bid: u64, apply: impl FnOnce(&mut Barrier)) {
        let Some(barrier) = self.barriers.get_mut(&bid) else { return };
        apply(barrier);
        barrier.got += 1;
        if barrier.got >= barrier.expected {
            let barrier = self.barriers.remove(&bid).expect("looked up above");
            self.finalize(barrier);
        }
    }

    /// Builds and delivers a completed barrier's reply.
    fn finalize(&mut self, barrier: Barrier) {
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
                    let images: Result<Vec<FleetImage>, String> = parts
                        .into_iter()
                        .map(|(idx, blob)| {
                            image_from_bytes(blob)
                                .map_err(|e| format!("backend {idx} snapshot undecodable: {e}"))
                        })
                        .collect();
                    match images {
                        Ok(images) => {
                            Response::Snapshot { image: image_to_bytes(&FleetImage::merge(images)) }
                        }
                        Err(detail) => Response::error(ErrorCode::SnapshotFailed, None, detail),
                    }
                }
                BarrierKind::Metrics => {
                    // Fleet view = every backend's registry plus the
                    // router's own `router.*` metrics, merged entry-wise —
                    // the same discipline as `FleetSnapshot::merged` for
                    // `Stats`. Merge order is irrelevant: entries are
                    // keyed by `(name, kind)` and counts add.
                    let mut parts = barrier.metrics;
                    parts.push(self.handle.metrics.registry.snapshot());
                    Response::Metrics(MetricsSnapshot::merged(&parts))
                }
            }
        };
        self.deliver(barrier.conn, resp);
    }

    // -- link death ----------------------------------------------------

    /// Sweeps the routing table for a dead backend's trips: remove them
    /// and surface a typed error per trip (the no-standby contract).
    pub(crate) fn fail_routes(&mut self, idx: u32) {
        let dead: Vec<(TripId, u64)> = self
            .trips
            .iter()
            .filter(|(_, route)| route.backend == idx)
            .map(|(&id, route)| (id, route.conn))
            .collect();
        for (id, conn) in dead {
            self.trips.remove(&id);
            let lost = format!("backend {idx} connection lost");
            self.deliver(conn, Response::error(ErrorCode::EngineClosed, Some(id), lost));
        }
    }

    /// A backend connection died (the loop saw EOF, a framing fault or a
    /// transport error on it). Staged entries are drained — failed, or
    /// carried into a failover; the link's trips get typed errors unless
    /// a standby can take over, in which case the loop is held from this
    /// very step until the recovery driver spawned here releases it: no
    /// producer frame can be routed between detection and hold.
    fn link_down(&mut self, idx: u32) {
        if !self.links[idx as usize].kill(self.door.source_mut(), idx) {
            return;
        }
        self.standbys.retain(|&s| s != idx);
        let entries = std::mem::take(&mut self.links[idx as usize].pending);
        let lost = format!("backend {idx} connection lost");
        let in_map = self.map.slots.contains(&idx);
        let recoverable = in_map
            && self.handle.journaling
            && self.links[idx as usize].journal.recoverable()
            && !self.standbys.is_empty();
        if !recoverable {
            for entry in entries {
                self.fail_entry(entry, ErrorCode::EngineClosed, lost.clone());
            }
            if in_map {
                self.fail_routes(idx);
            }
            return;
        }
        // Mark the partition's live trips replaying *before* the driver
        // starts pushing frames, so every replay-induced reply is
        // classified correctly.
        for route in self.trips.values_mut().filter(|route| route.backend == idx) {
            route.replaying = true;
        }
        // Barriers staged on the dead link move to the promoted backend;
        // everything else (admin channels) fails typed.
        let mut restage = Vec::new();
        for entry in entries {
            match entry {
                PendingEntry::Barrier(kind, bid) => restage.push((kind, bid)),
                other => self.fail_entry(other, ErrorCode::EngineClosed, lost.clone()),
            }
        }
        self.holds += 1;
        let handle = Arc::clone(&self.handle);
        let driver = std::thread::Builder::new()
            .name(format!("tad-router-recover-{idx}"))
            .spawn(move || recover(&handle, idx, restage))
            .expect("spawn recovery driver");
        self.drivers.push(driver);
    }

    /// Pops the next live standby, or `None` when the pool is dry.
    pub(crate) fn take_standby(&mut self) -> Option<u32> {
        (!self.standbys.is_empty()).then(|| self.standbys.remove(0))
    }

    /// A drained backend that serves no partition any more is empty:
    /// reset its journal and return it to the pool as a future
    /// failover/handoff target.
    pub(crate) fn retire(&mut self, idx: u32) {
        self.links[idx as usize].journal.reset_to(FleetImage::default(), self.handle.journaling);
        self.standbys.push(idx);
    }

    /// Point-in-time router counters.
    pub fn stats(&self) -> RouterStats {
        let front = self.front.stats();
        RouterStats {
            fronts_accepted: front.connections_accepted,
            fronts_open: front.connections_open,
            responses_dropped: front.responses_dropped,
            backends_total: self.links.len() as u64,
            backends_alive: self.links.iter().filter(|l| l.alive()).count() as u64,
            standbys_available: self.standbys.len() as u64,
            failovers: self.failovers,
            last_recovery_micros: self.last_recovery_micros,
            partition_epoch: self.map.epoch,
        }
    }
}

fn backend_down_error(id: TripId, backend: u32) -> Response {
    Response::error(ErrorCode::EngineClosed, Some(id), format!("backend {backend} is down"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::heap_requests;
    use tad_net::{response_to_bytes, Interest};
    use tad_serve::ScoreUpdate;

    /// One end of a scripted socket: reads what the test last put in
    /// `input` (bytes and read position), then would block; writes land
    /// in `output`, in room the test reserves up front.
    struct Pipe {
        input: Arc<Mutex<(Vec<u8>, usize)>>,
        output: Arc<Mutex<Vec<u8>>>,
    }

    impl Pipe {
        fn new() -> Pipe {
            Pipe {
                input: Arc::new(Mutex::new((Vec::new(), 0))),
                output: Arc::new(Mutex::new(Vec::with_capacity(1 << 20))),
            }
        }

        fn end(&self) -> Pipe {
            Pipe { input: Arc::clone(&self.input), output: Arc::clone(&self.output) }
        }
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let mut input = self.input.lock().expect("input");
            let (bytes, at) = &mut *input;
            let n = buf.len().min(bytes.len() - *at);
            if n == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            buf[..n].copy_from_slice(&bytes[*at..*at + n]);
            *at += n;
            Ok(n)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.lock().expect("output").extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A source that hands its producer transport over at the first tick
    /// and reports no readiness: the test drives the link reads itself.
    struct Quiet(Vec<Pipe>);

    impl EventSource<Pipe> for Quiet {
        fn register(&mut self, _: u64, _: &Pipe, _: Interest) -> std::io::Result<()> {
            Ok(())
        }

        fn reregister(&mut self, _: u64, _: &Pipe, _: Interest) -> std::io::Result<()> {
            Ok(())
        }

        fn deregister(&mut self, _: u64, _: &Pipe) -> std::io::Result<()> {
            Ok(())
        }

        fn wait(&mut self, out: &mut Vec<Readiness>, _: Option<Duration>) -> std::io::Result<bool> {
            out.clear();
            Ok(true)
        }

        fn accept_injected(&mut self) -> Vec<Pipe> {
            std::mem::take(&mut self.0)
        }
    }

    /// The relay's allocation contract: a backend link's read of `Score`
    /// frames, their relay to the owning producer and the tick's end that
    /// hands them to its socket ask the heap a constant number of times
    /// however many scores the read carries. Each frame is verified and
    /// relayed off the slice the link lends out of its read buffer.
    #[test]
    fn a_link_read_relays_any_number_of_scores_in_a_constant_number_of_allocations() {
        const PRODUCER: u64 = 0;
        let (producer, link) = (Pipe::new(), Pipe::new());
        let (producer_out, link_in) = (Arc::clone(&producer.output), Arc::clone(&link.input));
        let source = Quiet(vec![producer.end()]);
        let mut router = RouterLoop::new(source, vec![link.end()], 1, &RouterConfig::default());
        let tick = router.door.poll(&mut Vec::new()).expect("the first tick adopts the producer");
        for id in 0..1024 {
            router.trips.insert(id, TripRoute::new(PRODUCER, 0));
        }
        let ready = Readiness { key: LINK_KEY, readable: true, writable: false };

        // The first read grows what is kept across ticks (the link's read
        // buffer, the gathering buffer, the queues); the widths after it
        // differ sixteenfold and must cost the same.
        let mut requests = Vec::new();
        for (seq, width) in [(0u32, 1024u64), (1, 64), (2, 1024)] {
            let score =
                |id| ScoreUpdate { id, seq, segment: 7, score: 1.5, nll: 0.5, log_scale: 0.25 };
            let frames: Vec<u8> = (0..width)
                .flat_map(|id| response_to_bytes(&Response::Score(score(id))).to_vec())
                .collect();
            *link_in.lock().expect("input") = (frames.clone(), 0);
            let (_, relaying) = heap_requests(|| {
                router.on_link_ready(ready);
                router.flush_replies();
                router.door.finish_tick(tick)
            });
            requests.push(relaying);
            let mut written = producer_out.lock().expect("output");
            assert!(*written == frames, "every score reached the producer as it arrived");
            written.clear();
        }
        assert_eq!(requests[1], requests[2], "allocations grew with the scores relayed");
        assert!(requests[2] <= 4, "{} allocations to relay a read", requests[2]);
        assert_eq!(router.stats().backends_alive, 1);
    }
}
