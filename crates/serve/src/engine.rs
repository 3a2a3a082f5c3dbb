//! The public fleet-engine API: configuration, builder, bounded sharded
//! ingest, stats access, and drain-on-shutdown.

use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bytes::Bytes;
use causaltad::CausalTad;
use tad_metrics::{MetricsSnapshot, Registry};

use crate::delta::{delta_to_bytes, FleetDelta};
use crate::event::{Event, ScoreUpdate, TripId, TripOutcome};
use crate::policy::{PolicyCallback, PolicyOutcome, StreamPolicy};
use crate::queue::{self, Sender};
use crate::session::MAX_SESSIONS;
use crate::shard::{run_shard, Ingest, ShardCtx};
use crate::snapshot::{image_to_bytes, FleetImage, SessionRecord, SnapshotError};
use crate::stats::{FleetSnapshot, FleetStats, ServeMetrics};

/// Completion callback invoked by shard workers with each finished trip.
pub type CompletionCallback = Arc<dyn Fn(TripOutcome) + Send + Sync>;

/// Score callback invoked by shard workers with the scores of one model
/// step — a whole `push_batch` wave, in wave order (the per-segment online
/// delivery path, handed over a wave at a time).
pub type ScoreCallback = Arc<dyn Fn(&[ScoreUpdate]) + Send + Sync>;

/// Tunables of the fleet engine.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Shard worker threads; trips are hash-routed so one trip's events
    /// always land on the same shard.
    pub num_shards: usize,
    /// Bound on each shard's ingest queue, in queue messages: one
    /// `submit` / `try_submit` event, one [`FleetEngine::submit_all`] or
    /// [`FleetEngine::try_submit_cohort`] chunk however many events it
    /// carries, or one control message (`flush`, `snapshot`, …). When
    /// full, `submit` blocks and `try_submit` returns
    /// [`SubmitError::Full`] (backpressure). It is a bound, not an
    /// allocation: the queue's memory follows the messages it holds, so a
    /// generous bound costs nothing while the shard keeps up.
    pub queue_capacity: usize,
    /// Soft cap on the events drained into one micro-batch: the worker
    /// stops pulling queue messages once the batch holds this many, but a
    /// chunk ([`FleetEngine::submit_all`], [`FleetEngine::try_submit_cohort`])
    /// is never split, so a batch can overshoot by up to one chunk — 8 192
    /// cohort events against the default 2 048 scored as ~3.7k-wide waves
    /// in `tadbench`'s `engine_wide_sat`. The cap bounds latency, not
    /// memory: [`CausalTad::push_batch`] walks a wave in fixed row tiles,
    /// so a wave's scratch does not grow with its width.
    pub max_batch: usize,
    /// Idle time after which a live session is evicted and reported as
    /// [`crate::Completion::EvictedTtl`].
    pub session_ttl: Duration,
    /// Hard cap on live sessions per shard; beyond it the least recently
    /// active trip is evicted ([`crate::Completion::EvictedLru`]). The
    /// session store keeps an intrusive recency list, so the eviction is
    /// O(1) — the cap can sit at the working-set size without throughput
    /// falling off a cliff when it is hit. Must be in `1..=u32::MAX` (a
    /// store addresses its sessions with 32-bit slot indices).
    ///
    /// Size it from what one live session costs: its hidden row
    /// (`2·hidden_dim` bytes, bf16), a 104-byte slot in the store and one
    /// trip-id map entry — the same after one segment as after a
    /// thousand. Segments queued inside a drain live on the shard's drain
    /// queue, not in the session, and a default [`StreamPolicy`]
    /// allocates nothing per session.
    pub max_sessions_per_shard: usize,
    /// Per-session ingest sanitization (dedup window, reorder repair, gap
    /// policy). The default is all-off, which leaves the scoring path
    /// byte-identical to an unpoliced engine.
    pub policy: StreamPolicy,
    /// Fleet-wide admission watermark on live sessions: while the
    /// `active_sessions` count is at or above it, **new** `TripStart`s
    /// are shed ([`SubmitError::Shed`] / [`SubmitError::ShedChunk`] /
    /// [`CohortOutcome::shed`]) while events of already-admitted trips
    /// keep scoring — graceful degradation instead of queue-thrash under
    /// a session flood. `0` (the default) disables the watermark.
    pub admission_session_watermark: usize,
    /// Fleet-wide admission watermark on queued-but-unscored events (the
    /// `serve.ingest_inflight` gauge): while the in-flight depth is at or
    /// above it, new `TripStart`s are shed. `0` (the default) disables
    /// the watermark.
    pub admission_queue_watermark: usize,
    /// Pacing hint a front-end should attach to shed replies
    /// (`retry_after_ms` on the wire); exposed through
    /// [`FleetEngine::admission_retry_after`].
    pub admission_retry_after: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        let shards = std::thread::available_parallelism().map_or(4, |n| n.get()).min(8);
        FleetConfig {
            num_shards: shards,
            queue_capacity: 4096,
            max_batch: 2048,
            session_ttl: Duration::from_secs(300),
            max_sessions_per_shard: 8192,
            policy: StreamPolicy::default(),
            admission_session_watermark: 0,
            admission_queue_watermark: 0,
            admission_retry_after: Duration::from_millis(200),
        }
    }
}

/// Why the engine could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The model has no scaling table — call `fit()` or
    /// `precompute_scaling()` before serving.
    ModelNotReady,
    /// A config field is out of range.
    InvalidConfig(&'static str),
    /// A session in the resume snapshot does not fit the model (it was
    /// captured against a different vocabulary or hidden width).
    SnapshotMismatch {
        /// The offending session's trip id.
        trip: TripId,
        /// Which invariant it violated.
        what: &'static str,
    },
    /// A live-restore target shard's worker is gone (it panicked or the
    /// engine is shutting down).
    ShardUnavailable {
        /// Index of the unresponsive shard.
        shard: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ModelNotReady => {
                write!(f, "model has no scaling table; call fit() or precompute_scaling() first")
            }
            ServeError::InvalidConfig(what) => write!(f, "invalid fleet config: {what}"),
            ServeError::SnapshotMismatch { trip, what } => {
                write!(f, "snapshot session for trip {trip} does not fit the model: {what}")
            }
            ServeError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} is unavailable; cannot deliver restored sessions")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Why an event was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// The target shard's queue is full; the event is handed back so the
    /// caller can retry or shed load.
    Full(Event),
    /// The engine has shut down; the event is handed back.
    Closed(Event),
    /// The engine shut down during [`FleetEngine::submit_all`]; carries
    /// every event of the call that was not accepted.
    ClosedChunk(Vec<Event>),
    /// The fleet is above an admission watermark
    /// ([`FleetConfig::admission_session_watermark`] /
    /// [`FleetConfig::admission_queue_watermark`]) and the event was a
    /// **new** `TripStart` — shed, handed back. Events of already-admitted
    /// trips are never shed.
    Shed(Event),
    /// The fleet was above an admission watermark during
    /// [`FleetEngine::submit_all`]; carries the events it shed — the
    /// chunk's `TripStart`s and every later event of those trips — in
    /// submission order. Every other event of the call was accepted.
    ShedChunk(Vec<Event>),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full(ev) => write!(f, "shard queue full for trip {}", ev.trip_id()),
            SubmitError::Closed(ev) => {
                write!(f, "engine closed; returned event for trip {}", ev.trip_id())
            }
            SubmitError::ClosedChunk(evs) => {
                write!(f, "engine closed; returned {} unaccepted events", evs.len())
            }
            SubmitError::Shed(ev) => {
                write!(f, "admission watermark reached; shed new trip {}", ev.trip_id())
            }
            SubmitError::ShedChunk(evs) => {
                write!(f, "admission watermark reached; shed {} events of new trips", evs.len())
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// What [`FleetEngine::try_submit_cohort`] did with a cohort: how many
/// events entered shard queues, and the indexes (into the submitted
/// vector) of events that did not. Bounces are whole shard groups, so
/// the indexes of one trip's events are either all accepted or all in
/// [`CohortOutcome::full`] — the per-trip ordering contract of
/// [`crate::SubmitError::Full`] backpressure, cohort-sized.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CohortOutcome {
    /// Events accepted into shard queues (stats already bumped).
    pub accepted: u64,
    /// Indexes bounced by a full shard queue — explicit backpressure;
    /// these events never entered the engine and must be re-sent by their
    /// producers before any later event of the same trips.
    pub full: Vec<usize>,
    /// Indexes refused because the engine has shut down.
    pub closed: Vec<usize>,
    /// Indexes shed by the admission controller: `TripStart`s of **new**
    /// trips offered while the fleet was above a watermark, plus any
    /// later events of those same trips inside this cohort (their start
    /// never entered the engine). Counted under `serve.admission_shed`.
    pub shed: Vec<usize>,
}

/// Builder for [`FleetEngine`].
pub struct FleetEngineBuilder {
    model: Arc<CausalTad>,
    cfg: FleetConfig,
    on_complete: Option<CompletionCallback>,
    on_score: Option<ScoreCallback>,
    on_policy: Option<PolicyCallback>,
    resume: Option<FleetImage>,
    registry: Option<Arc<Registry>>,
}

impl FleetEngineBuilder {
    /// Overrides the default [`FleetConfig`].
    pub fn config(mut self, cfg: FleetConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Called by shard workers with every finished trip (ended, evicted,
    /// or flushed at shutdown). Must be cheap or hand off to a channel —
    /// it runs on the scoring threads.
    pub fn on_complete(mut self, cb: impl Fn(TripOutcome) + Send + Sync + 'static) -> Self {
        self.on_complete = Some(Arc::new(cb));
        self
    }

    /// Called by shard workers with every scored segment — the per-segment
    /// online score delivery behind the paper's streaming-detection claim
    /// (and `tad-net`'s `Score` response frames). Fires right after the
    /// micro-batched step that consumed the segment, in per-trip order.
    /// Must be cheap or hand off to a channel — it runs on the scoring
    /// threads.
    pub fn on_score(self, cb: impl Fn(&ScoreUpdate) + Send + Sync + 'static) -> Self {
        self.on_scores(move |wave| wave.iter().for_each(&cb))
    }

    /// [`FleetEngineBuilder::on_score`] a wave at a time: called once per
    /// batched model step with every score it produced, in wave order (a
    /// trip appears at most once per wave, and its waves arrive in
    /// order), so a consumer that routes or encodes scores pays its
    /// per-call costs once per wave instead of once per segment. Replaces
    /// any `on_score` callback; the same cost rule applies — it runs on
    /// the scoring threads.
    pub fn on_scores(mut self, cb: impl Fn(&[ScoreUpdate]) + Send + Sync + 'static) -> Self {
        self.on_score = Some(Arc::new(cb));
        self
    }

    /// Called by shard workers with every ingest-sanitization outcome —
    /// policy transforms (dedup drops, reorder repairs, gap handling)
    /// when the corresponding [`StreamPolicy`] knob is enabled, and
    /// quarantine classifications of malformed events unconditionally.
    /// This is how a network front-end turns a silent reject into a typed
    /// per-trip reply. Must be cheap or hand off to a channel — it runs
    /// on the scoring threads.
    pub fn on_policy(mut self, cb: impl Fn(&PolicyOutcome) + Send + Sync + 'static) -> Self {
        self.on_policy = Some(Arc::new(cb));
        self
    }

    /// Seeds the engine with the sessions of a [`FleetImage`] (warm
    /// restart). The image may come from an engine with a different shard
    /// count — sessions are re-partitioned for this engine's
    /// `num_shards`. `build()` validates every session against the model
    /// and delivers the seeds to the shards before any traffic, so scoring
    /// resumes bit-identically to the captured engine.
    pub fn resume(mut self, image: FleetImage) -> Self {
        self.resume = Some(image);
        self
    }

    /// Records this engine's latency/depth metrics (the `serve.*` names)
    /// into a shared [`Registry`] instead of a fresh private one — how a
    /// process-level front-end (e.g. `tad-net`'s server) gets the engine
    /// and its own `net.*` metrics into one snapshot answering a single
    /// wire `MetricsRequest`.
    pub fn metrics_registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Validates the config, spawns the shard workers, seeds any resume
    /// sessions, and starts serving.
    ///
    /// # Errors
    /// [`ServeError::ModelNotReady`] when the model has no scaling table,
    /// [`ServeError::InvalidConfig`] when a config field is out of range,
    /// and [`ServeError::SnapshotMismatch`] when a resume session does not
    /// fit the model.
    pub fn build(self) -> Result<FleetEngine, ServeError> {
        let FleetEngineBuilder { model, cfg, on_complete, on_score, on_policy, resume, registry } =
            self;
        if model.scaling().is_none() {
            return Err(ServeError::ModelNotReady);
        }
        if cfg.num_shards == 0 {
            return Err(ServeError::InvalidConfig("num_shards must be >= 1"));
        }
        if cfg.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig("queue_capacity must be >= 1"));
        }
        if cfg.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be >= 1"));
        }
        if cfg.max_sessions_per_shard == 0 {
            return Err(ServeError::InvalidConfig("max_sessions_per_shard must be >= 1"));
        }
        if cfg.max_sessions_per_shard > MAX_SESSIONS {
            return Err(ServeError::InvalidConfig("max_sessions_per_shard must be <= u32::MAX"));
        }
        let seeds = match resume {
            Some(image) => Some(partition_image(&model, image, cfg.num_shards)?),
            None => None,
        };
        // Every wave steps against the model's resident inference plan
        // (per-token input-gate table, packed recurrent weight): one copy
        // per model, shared by its shards and by every engine serving it.
        // Derive it here if nothing has yet, not inside a shard's first
        // wave.
        model.build_step_cache();
        let stats = Arc::new(FleetStats::new());
        let registry = registry.unwrap_or_default();
        let metrics = ServeMetrics::register(&registry);
        let mut senders = Vec::with_capacity(cfg.num_shards);
        let mut workers = Vec::with_capacity(cfg.num_shards);
        for shard in 0..cfg.num_shards {
            let (tx, rx) = queue::bounded::<Ingest>(cfg.queue_capacity);
            let ctx = ShardCtx {
                model: Arc::clone(&model),
                cfg: cfg.clone(),
                stats: Arc::clone(&stats),
                metrics: metrics.clone(),
                on_complete: on_complete.clone(),
                on_score: on_score.clone(),
                on_policy: on_policy.clone(),
            };
            let handle = std::thread::Builder::new()
                .name(format!("tad-serve-shard-{shard}"))
                .spawn(move || run_shard(ctx, rx))
                .expect("spawn shard worker");
            senders.push(tx);
            workers.push(handle);
        }
        if let Some(groups) = seeds {
            for (shard, group) in groups.into_iter().enumerate() {
                if !group.is_empty() {
                    senders[shard].send(Ingest::Restore(group)).expect("worker just spawned");
                }
            }
        }
        let admission = Admission {
            session_watermark: cfg.admission_session_watermark as u64,
            queue_watermark: cfg.admission_queue_watermark as i64,
            retry_after: cfg.admission_retry_after,
        };
        Ok(FleetEngine {
            model,
            senders,
            workers,
            stats,
            registry,
            metrics,
            admission,
            delta_clock: Mutex::new(DeltaClock { epoch: 0, seq: 0, armed: false }),
        })
    }
}

/// The engine's resolved admission watermarks (see [`FleetConfig`]);
/// zero means the corresponding watermark is off.
#[derive(Clone, Copy)]
struct Admission {
    session_watermark: u64,
    queue_watermark: i64,
    retry_after: Duration,
}

/// A chunk split by [`FleetEngine::group`].
struct Grouped {
    /// Per shard: the events it receives, in submission order, and each
    /// one's index in the chunk.
    shards: Vec<(Vec<Event>, Vec<usize>)>,
    /// Events shed by admission control, with their chunk indexes, in
    /// submission order.
    shed: Vec<(usize, Event)>,
}

/// The engine's delta-chain position: the epoch of the last checkpoint
/// and the sequence number of the last delta captured against it.
/// Guarded by one mutex so concurrent checkpoint/delta callers serialize
/// and every shard sees the captures in the same order.
struct DeltaClock {
    epoch: u64,
    seq: u64,
    armed: bool,
}

/// Validates every snapshot session against `model` and groups them by
/// target shard, oldest first within each group (the order the shard's
/// recency list is rebuilt in).
fn partition_image(
    model: &CausalTad,
    image: FleetImage,
    num_shards: usize,
) -> Result<Vec<Vec<SessionRecord>>, ServeError> {
    let hidden = model.config().hidden_dim;
    let vocab = model.vocab() as u32;
    let mut groups: Vec<Vec<SessionRecord>> = vec![Vec::new(); num_shards];
    for rec in image.sessions {
        let trip = rec.id;
        if rec.state.hidden_width() != hidden {
            return Err(ServeError::SnapshotMismatch { trip, what: "hidden width" });
        }
        if rec.state.last_segment().is_some_and(|seg| seg >= vocab) {
            return Err(ServeError::SnapshotMismatch { trip, what: "last segment out of vocab" });
        }
        if rec.pending.iter().any(|&seg| seg >= vocab) {
            return Err(ServeError::SnapshotMismatch {
                trip,
                what: "pending segment out of vocab",
            });
        }
        groups[shard_index(trip, num_shards)].push(rec);
    }
    for group in &mut groups {
        // Oldest (largest idle) first; a stable sort keeps capture order
        // between equal ages.
        group.sort_by_key(|rec| std::cmp::Reverse(rec.idle_micros));
    }
    Ok(groups)
}

/// Fibonacci hashing of the trip id onto a shard.
fn shard_index(id: TripId, num_shards: usize) -> usize {
    let h = id.wrapping_mul(0x9E3779B97F4A7C15);
    (h % num_shards as u64) as usize
}

/// The concurrent fleet-scoring engine. See the crate docs for the data
/// flow; construct through [`FleetEngine::builder`].
pub struct FleetEngine {
    model: Arc<CausalTad>,
    senders: Vec<Sender<Ingest>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<FleetStats>,
    registry: Arc<Registry>,
    metrics: ServeMetrics,
    admission: Admission,
    delta_clock: Mutex<DeltaClock>,
}

impl FleetEngine {
    /// Starts building an engine over a trained model.
    pub fn builder(model: Arc<CausalTad>) -> FleetEngineBuilder {
        FleetEngineBuilder {
            model,
            cfg: FleetConfig::default(),
            on_complete: None,
            on_score: None,
            on_policy: None,
            resume: None,
            registry: None,
        }
    }

    /// Starts building an engine that resumes the sessions of a previously
    /// captured [`FleetImage`] — shorthand for
    /// `FleetEngine::builder(model).resume(image)`. Attach a config and
    /// completion callback as usual, then `build()`.
    pub fn restore(model: Arc<CausalTad>, image: FleetImage) -> FleetEngineBuilder {
        FleetEngine::builder(model).resume(image)
    }

    fn shard_of(&self, ev: &Event) -> usize {
        shard_index(ev.trip_id(), self.senders.len())
    }

    /// Whether the fleet is currently above an admission watermark — the
    /// state in which the submit paths shed **new** `TripStart`s
    /// ([`SubmitError::Shed`] / [`SubmitError::ShedChunk`] /
    /// [`CohortOutcome::shed`]) while events of already-admitted trips
    /// keep flowing. Always `false` with both watermarks at their default
    /// `0`.
    pub fn admission_overloaded(&self) -> bool {
        let adm = &self.admission;
        (adm.session_watermark > 0
            && self.stats.active_sessions.load(std::sync::atomic::Ordering::Relaxed)
                >= adm.session_watermark)
            || (adm.queue_watermark > 0 && self.metrics.inflight.get() >= adm.queue_watermark)
    }

    /// The pacing hint shed replies should carry back to producers
    /// ([`FleetConfig::admission_retry_after`]).
    pub fn admission_retry_after(&self) -> Duration {
        self.admission.retry_after
    }

    /// One admission-shed event: counted, handed back.
    fn shed(&self, ev: Event) -> SubmitError {
        self.metrics.admission_shed.add(1);
        SubmitError::Shed(ev)
    }

    /// Enqueues an event, blocking while the target shard's queue is full.
    ///
    /// # Errors
    /// [`SubmitError::Closed`] when the engine has shut down,
    /// [`SubmitError::Shed`] when the event is a new `TripStart` and the
    /// fleet is above an admission watermark. Both hand the event back.
    pub fn submit(&self, ev: Event) -> Result<(), SubmitError> {
        if matches!(ev, Event::TripStart { .. }) && self.admission_overloaded() {
            return Err(self.shed(ev));
        }
        let shard = self.shard_of(&ev);
        match self.senders[shard].send(Ingest::One(ev)) {
            Ok(()) => {
                FleetStats::bump(&self.stats.events_ingested);
                self.metrics.inflight.add(1);
                Ok(())
            }
            Err(e) => Err(SubmitError::Closed(e.0.into_single())),
        }
    }

    /// Non-blocking enqueue; hands the event back when the shard is full.
    ///
    /// # Errors
    /// [`SubmitError::Full`] when the target shard's queue is at capacity
    /// (backpressure — retry or shed load), [`SubmitError::Closed`] when
    /// the engine has shut down, [`SubmitError::Shed`] when the event is a
    /// new `TripStart` and the fleet is above an admission watermark. All
    /// hand the event back.
    pub fn try_submit(&self, ev: Event) -> Result<(), SubmitError> {
        if matches!(ev, Event::TripStart { .. }) && self.admission_overloaded() {
            return Err(self.shed(ev));
        }
        let shard = self.shard_of(&ev);
        match self.senders[shard].try_send(Ingest::One(ev)) {
            Ok(()) => {
                FleetStats::bump(&self.stats.events_ingested);
                self.metrics.inflight.add(1);
                Ok(())
            }
            Err(TrySendError::Full(msg)) => Err(SubmitError::Full(msg.into_single())),
            Err(TrySendError::Disconnected(msg)) => Err(SubmitError::Closed(msg.into_single())),
        }
    }

    /// The grouping step of both chunk submit paths: splits `events` by
    /// shard in submission order and applies the chunk's shed rule (see
    /// [`FleetEngine::try_submit_cohort`]), counting the shed events.
    fn group(&self, events: impl IntoIterator<Item = Event>) -> Grouped {
        let overloaded = self.admission_overloaded();
        let mut shed_trips: Vec<TripId> = Vec::new();
        let mut grouped =
            Grouped { shards: vec![Default::default(); self.senders.len()], shed: Vec::new() };
        for (idx, ev) in events.into_iter().enumerate() {
            if overloaded {
                let id = ev.trip_id();
                let start = matches!(ev, Event::TripStart { .. });
                if start && !shed_trips.contains(&id) {
                    shed_trips.push(id);
                }
                if start || shed_trips.contains(&id) {
                    grouped.shed.push((idx, ev));
                    continue;
                }
            }
            let (group, indexes) = &mut grouped.shards[self.shard_of(&ev)];
            group.push(ev);
            indexes.push(idx);
        }
        if !grouped.shed.is_empty() {
            self.metrics.admission_shed.add(grouped.shed.len() as u64);
        }
        grouped
    }

    /// Bulk enqueue: groups `events` by shard (preserving per-trip order)
    /// and hands each shard its group as one queue message. High-volume
    /// producers should prefer this — it amortises the per-message channel
    /// synchronisation across the whole chunk. Blocks while queues are
    /// full. Admission control sheds the chunk's new trips as
    /// [`FleetEngine::try_submit_cohort`] does.
    /// On engine shutdown mid-call, every not-yet-accepted event (the
    /// failing shard's group, all unsent groups and any shed events) is
    /// handed back in [`SubmitError::ClosedChunk`]; groups already
    /// delivered to other shards stay delivered.
    ///
    /// # Errors
    /// [`SubmitError::ClosedChunk`] when the engine shut down mid-call,
    /// carrying every event that was not accepted;
    /// [`SubmitError::ShedChunk`] when the fleet was above an admission
    /// watermark and the chunk held new trips, carrying their events.
    pub fn submit_all(&self, events: impl IntoIterator<Item = Event>) -> Result<(), SubmitError> {
        let Grouped { shards, shed } = self.group(events);
        let shed: Vec<Event> = shed.into_iter().map(|(_, ev)| ev).collect();
        let mut groups = shards.into_iter().enumerate();
        for (shard, (group, _)) in &mut groups {
            if group.is_empty() {
                continue;
            }
            let len = group.len() as u64;
            if let Err(e) = self.senders[shard].send(Ingest::Many(group)) {
                let mut unaccepted = e.0.into_events();
                unaccepted.extend(groups.flat_map(|(_, (g, _))| g));
                unaccepted.extend(shed);
                return Err(SubmitError::ClosedChunk(unaccepted));
            }
            FleetStats::add(&self.stats.events_ingested, len);
            self.metrics.inflight.add(len as i64);
        }
        if shed.is_empty() {
            Ok(())
        } else {
            Err(SubmitError::ShedChunk(shed))
        }
    }

    /// Non-blocking bulk enqueue for the network tier's cross-connection
    /// micro-batches: groups `events` by shard (preserving submission
    /// order within each shard, and therefore per-trip order) and
    /// `try_send`s each group as **one** queue message, so a whole poll
    /// tick's worth of segments reaches a shard as a single cohort and
    /// scores in wide [`CausalTad::push_batch`] waves.
    ///
    /// A full shard bounces its **entire group** — never a prefix — so
    /// the per-trip ordering contract survives backpressure: either every
    /// queued event of a trip's cohort slice is accepted in order, or the
    /// caller gets all of them back (by index) to bounce to their
    /// producers. Accepted groups on other shards stay accepted;
    /// per-shard admission is independent, which is safe because trips
    /// never span shards.
    ///
    /// The returned [`CohortOutcome`] carries indexes into the submitted
    /// slice, so a caller that tracked per-event metadata (owning
    /// connection, trip id) in a parallel vector can route one typed
    /// reply per bounced event.
    ///
    /// Admission control is evaluated **once per cohort**: when the fleet
    /// is above a watermark on entry, every `TripStart` in the cohort is
    /// shed — along with any later events of those same trips (their
    /// start never entered the engine) — into [`CohortOutcome::shed`],
    /// while events of already-admitted trips pass through untouched.
    pub fn try_submit_cohort(&self, events: Vec<Event>) -> CohortOutcome {
        let Grouped { shards, shed } = self.group(events);
        let mut outcome = CohortOutcome {
            shed: shed.into_iter().map(|(idx, _)| idx).collect(),
            ..CohortOutcome::default()
        };
        for (shard, (group, indexes)) in shards.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let len = group.len() as u64;
            match self.senders[shard].try_send(Ingest::Many(group)) {
                Ok(()) => {
                    FleetStats::add(&self.stats.events_ingested, len);
                    self.metrics.inflight.add(len as i64);
                    outcome.accepted += len;
                }
                Err(TrySendError::Full(_)) => outcome.full.extend(indexes),
                Err(TrySendError::Disconnected(_)) => outcome.closed.extend(indexes),
            }
        }
        outcome
    }

    /// Number of shard workers.
    pub fn num_shards(&self) -> usize {
        self.senders.len()
    }

    /// Captures every live session into a [`FleetImage`] while the engine
    /// keeps serving.
    ///
    /// Each shard quiesces independently: it finishes every event that was
    /// queued ahead of the capture request, replies with clones of its
    /// live sessions, and goes straight back to serving. Events submitted
    /// after this call returns are never part of the image; events racing
    /// with the call land on one side or the other of each shard's quiesce
    /// point, with per-trip ordering preserved either way.
    ///
    /// Blocks until every shard has replied (bounded by the time it takes
    /// the shards to drain what is already queued).
    ///
    /// # Errors
    /// [`SnapshotError::ShardUnavailable`] when a shard worker is gone
    /// (it panicked or the engine is shutting down).
    pub fn snapshot(&self) -> Result<FleetImage, SnapshotError> {
        let parts = self.fan(Ingest::Snapshot)?;
        Ok(FleetImage {
            num_shards: self.senders.len() as u32,
            sessions: parts.into_iter().flatten().collect(),
        })
    }

    /// Fans one quiesce-point control message out to every shard (so they
    /// quiesce in parallel) and collects the replies in shard order.
    fn fan<T>(&self, make: impl Fn(SyncSender<T>) -> Ingest) -> Result<Vec<T>, SnapshotError> {
        let mut replies = Vec::with_capacity(self.senders.len());
        for (shard, tx) in self.senders.iter().enumerate() {
            let (reply_tx, reply_rx) = sync_channel(1);
            tx.send(make(reply_tx)).map_err(|_| SnapshotError::ShardUnavailable { shard })?;
            replies.push(reply_rx);
        }
        let mut out = Vec::with_capacity(replies.len());
        for (shard, reply_rx) in replies.into_iter().enumerate() {
            out.push(reply_rx.recv().map_err(|_| SnapshotError::ShardUnavailable { shard })?);
        }
        Ok(out)
    }

    /// Full capture that also starts (or restarts) a delta-snapshot
    /// chain: every live session is captured like [`FleetEngine::snapshot`]
    /// and every shard clears its dirty bits and tombstones, so the next
    /// [`FleetEngine::delta`] covers exactly the churn after this quiesce
    /// point. Returns the image and the **epoch** stamped on the new
    /// chain; feed both to [`crate::DeltaBase::new`] on the restore side.
    ///
    /// # Errors
    /// [`SnapshotError::ShardUnavailable`] when a shard worker is gone.
    pub fn checkpoint(&self) -> Result<(FleetImage, u64), SnapshotError> {
        let mut clock = self.delta_clock.lock().expect("delta clock poisoned");
        let parts = self.fan(Ingest::Checkpoint)?;
        clock.epoch += 1;
        clock.seq = 0;
        clock.armed = true;
        let image = FleetImage {
            num_shards: self.senders.len() as u32,
            sessions: parts.into_iter().flatten().collect(),
        };
        Ok((image, clock.epoch))
    }

    /// Incremental capture: the sessions dirtied and the trips removed
    /// since the previous [`FleetEngine::checkpoint`] or
    /// [`FleetEngine::delta`], as the next delta of the current chain —
    /// cost scales with churn, not fleet size. Apply in order with
    /// [`crate::DeltaBase::apply`].
    ///
    /// # Errors
    /// [`SnapshotError::NoCheckpoint`] before the first checkpoint,
    /// [`SnapshotError::ShardUnavailable`] when a shard worker is gone.
    pub fn delta(&self) -> Result<FleetDelta, SnapshotError> {
        let mut clock = self.delta_clock.lock().expect("delta clock poisoned");
        if !clock.armed {
            return Err(SnapshotError::NoCheckpoint);
        }
        let parts = self.fan(Ingest::Delta)?;
        clock.seq += 1;
        let mut removed = Vec::new();
        let mut sessions = Vec::new();
        for (records, tombs) in parts {
            sessions.extend(records);
            removed.extend(tombs);
        }
        self.metrics.dirty_sessions.add(sessions.len() as u64);
        Ok(FleetDelta {
            base_epoch: clock.epoch,
            seq: clock.seq,
            num_shards: self.senders.len() as u32,
            removed,
            sessions,
        })
    }

    /// [`FleetEngine::delta`] serialized with [`crate::delta_to_bytes`] —
    /// the incremental blob to append to durable storage.
    ///
    /// # Errors
    /// See [`FleetEngine::delta`].
    pub fn delta_bytes(&self) -> Result<Bytes, SnapshotError> {
        let delta = self.delta()?;
        let blob = delta_to_bytes(&delta);
        self.metrics.delta_bytes.add(blob.len() as u64);
        Ok(blob)
    }

    /// Captures **and removes** every live session — the source half of a
    /// live handoff. The sessions leave the engine without firing
    /// completion callbacks (they are not finished, they are moving), so
    /// restoring the returned image elsewhere and replaying the remaining
    /// traffic there continues every trip bit-identically.
    ///
    /// # Errors
    /// [`SnapshotError::ShardUnavailable`] when a shard worker is gone.
    pub fn drain_sessions(&self) -> Result<FleetImage, SnapshotError> {
        let parts = self.fan(Ingest::Drain)?;
        Ok(FleetImage {
            num_shards: self.senders.len() as u32,
            sessions: parts.into_iter().flatten().collect(),
        })
    }

    /// Seeds a **running** engine with the sessions of a [`FleetImage`] —
    /// the target half of a live handoff (the build-time equivalent is
    /// [`FleetEngineBuilder::resume`]). Sessions are validated against
    /// the model, re-partitioned for this engine's shard count, and
    /// enqueued ahead of any traffic submitted after this call returns;
    /// scoring of the moved trips resumes bit-identically. Returns the
    /// number of sessions delivered.
    ///
    /// # Errors
    /// [`ServeError::SnapshotMismatch`] when a session does not fit the
    /// model, [`ServeError::ShardUnavailable`] when a target shard's
    /// worker is gone.
    pub fn restore_sessions(&self, image: FleetImage) -> Result<u64, ServeError> {
        let groups = partition_image(&self.model, image, self.senders.len())?;
        let mut delivered = 0u64;
        for (shard, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            delivered += group.len() as u64;
            self.senders[shard]
                .send(Ingest::Restore(group))
                .map_err(|_| ServeError::ShardUnavailable { shard })?;
        }
        Ok(delivered)
    }

    /// [`FleetEngine::snapshot`] serialized with
    /// [`crate::image_to_bytes`] — the blob to write to durable storage.
    ///
    /// # Errors
    /// See [`FleetEngine::snapshot`].
    pub fn snapshot_bytes(&self) -> Result<Bytes, SnapshotError> {
        self.snapshot().map(|image| image_to_bytes(&image))
    }

    /// Quiesce barrier: blocks until every shard has processed every event
    /// that was queued ahead of this call. When `flush` returns, all
    /// `on_score` / `on_complete` callbacks for those events have already
    /// run — the hook a network front-end uses to answer "everything you
    /// sent so far has been scored" (`tad-net`'s `Flush` frame). Same
    /// quiesce mechanism as [`FleetEngine::snapshot`], without cloning any
    /// sessions.
    ///
    /// # Errors
    /// [`SnapshotError::ShardUnavailable`] when a shard worker is gone
    /// (it panicked or the engine is shutting down).
    pub fn flush(&self) -> Result<(), SnapshotError> {
        self.fan(Ingest::Flush).map(|_| ())
    }

    /// Point-in-time fleet counters.
    pub fn stats(&self) -> FleetSnapshot {
        self.stats.snapshot()
    }

    /// Point-in-time copy of the engine's latency/depth metrics (the
    /// `serve.*` names — score latency, batch width, queue depth). When
    /// the engine was built with [`FleetEngineBuilder::metrics_registry`],
    /// the snapshot covers everything else registered there too.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Stops ingest, drains every queue, flushes still-live sessions to the
    /// completion callback (as [`crate::Completion::Shutdown`]), joins the
    /// workers, and returns the final counters.
    pub fn shutdown(mut self) -> FleetSnapshot {
        self.senders.clear();
        for handle in self.workers.drain(..) {
            handle.join().expect("shard worker panicked");
        }
        self.stats.snapshot()
    }
}

impl Drop for FleetEngine {
    fn drop(&mut self) {
        self.senders.clear();
        for handle in self.workers.drain(..) {
            // Propagating a panic out of drop would abort; losing the
            // worker's panic message here is acceptable.
            let _ = handle.join();
        }
    }
}
