//! The shard worker: drains its bounded queue in micro-batches, advances
//! every touched session through one batched model step per wave, and
//! drives the session lifecycle (start, end, TTL/LRU eviction, shutdown
//! flush).

use std::mem;
use std::sync::mpsc::{RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use causaltad::{CausalTad, ScorerState, SegmentTrace, OFF_GRAPH_NLL};

use crate::engine::{CompletionCallback, FleetConfig, ScoreCallback};
use crate::event::{Completion, Event, ScoreUpdate, TripId, TripOutcome};
use crate::policy::{GapPolicy, PolicyAction, PolicyCallback, PolicyOutcome};
use crate::queue::Receiver;
use crate::session::{Session, SessionStore, NIL};
use crate::snapshot::SessionRecord;
use crate::stats::{FleetStats, ServeMetrics};

/// A queue message: one event, a producer-side chunk that amortises the
/// channel synchronisation, or a persistence control message.
pub(crate) enum Ingest {
    One(Event),
    Many(Vec<Event>),
    /// Quiesce: finish every event already queued ahead of this message,
    /// then reply with clones of all live sessions, oldest first.
    Snapshot(SyncSender<Vec<SessionRecord>>),
    /// Seed the store with restored sessions (sent at build time, ahead of
    /// any traffic; records arrive oldest first).
    Restore(Vec<SessionRecord>),
    /// Quiesce barrier: finish every event already queued ahead of this
    /// message (callbacks included), then reply. Like `Snapshot` without
    /// the session clones.
    Flush(SyncSender<()>),
    /// Full capture that also (re)starts delta tracking: clears every
    /// dirty bit and tombstone, so the next `Delta` covers exactly the
    /// churn since this quiesce point.
    Checkpoint(SyncSender<Vec<SessionRecord>>),
    /// Incremental capture: clones of the sessions dirtied since the last
    /// `Checkpoint`/`Delta` (clearing their dirty bits) plus the ids
    /// removed since then (taking the tombstone list).
    Delta(SyncSender<(Vec<SessionRecord>, Vec<TripId>)>),
    /// Capture-and-remove of every live session for a handoff: like
    /// `Snapshot`, but the sessions leave the store without firing
    /// completion callbacks — they are not finished, they are moving to
    /// another engine.
    Drain(SyncSender<Vec<SessionRecord>>),
}

impl Ingest {
    /// A representative event for error reporting.
    pub(crate) fn into_single(self) -> Event {
        match self {
            Ingest::One(ev) => ev,
            Ingest::Many(mut evs) => evs.pop().expect("submit_all never sends empty chunks"),
            _ => unreachable!("control messages never travel submit paths"),
        }
    }

    /// All carried events (for handing a failed chunk back to the caller).
    pub(crate) fn into_events(self) -> Vec<Event> {
        match self {
            Ingest::One(ev) => vec![ev],
            Ingest::Many(evs) => evs,
            _ => unreachable!("control messages never travel submit paths"),
        }
    }
}

/// Everything a shard worker needs, cloned per shard.
pub(crate) struct ShardCtx {
    pub model: Arc<CausalTad>,
    pub cfg: FleetConfig,
    pub stats: Arc<FleetStats>,
    pub metrics: ServeMetrics,
    pub on_complete: Option<CompletionCallback>,
    pub on_score: Option<ScoreCallback>,
    pub on_policy: Option<PolicyCallback>,
}

impl ShardCtx {
    /// Per-segment bookkeeping after a model step scored `state`'s newest
    /// segment as `step`: bumps the off-graph counter and builds the
    /// update the `on_score` callback is owed.
    fn score_update(
        &self,
        id: TripId,
        state: &ScorerState,
        score: f64,
        step: SegmentTrace,
    ) -> ScoreUpdate {
        if step.nll == OFF_GRAPH_NLL {
            FleetStats::bump(&self.stats.off_graph_hits);
        }
        ScoreUpdate {
            id,
            seq: (state.len() - 1) as u32,
            segment: step.segment,
            score,
            nll: step.nll,
            log_scale: step.log_scale,
        }
    }

    /// Hands one step's scores to the `on_score` callback in one call.
    fn deliver_scores(&self, wave: &[ScoreUpdate]) {
        if let Some(cb) = &self.on_score {
            cb(wave);
        }
    }

    /// Scores one segment outside the waves (at restore time or under the
    /// gap policy): the same step as a wave row — bit-identical, off-graph
    /// accounting included — delivered as a wave of one.
    fn score_one(&self, id: TripId, state: &mut ScorerState, seg: u32) {
        let mut row = None;
        self.model.step_wave(std::slice::from_mut(state), &[seg], |score, step| {
            row = Some((score, step));
        });
        let (score, step) = row.expect("a one-row step emits one row");
        FleetStats::bump(&self.stats.segments_scored);
        self.deliver_scores(&[self.score_update(id, state, score, step)]);
    }

    /// Delivers a sanitization outcome to the engine's `on_policy`
    /// callback (a no-op without one).
    fn notify_policy(&self, id: TripId, seg: Option<u32>, action: PolicyAction) {
        if let Some(cb) = &self.on_policy {
            cb(&PolicyOutcome { id, seg, action });
        }
    }

    /// A malformed event was rejected: counts it under both the legacy
    /// `rejected` stat and the `serve.quarantined` metric, and surfaces
    /// the classification so a front-end can answer the producer with a
    /// typed reply instead of a silent drop.
    fn quarantine(&self, id: TripId, seg: Option<u32>, action: PolicyAction) {
        FleetStats::bump(&self.stats.rejected);
        self.metrics.quarantined.add(1);
        self.notify_policy(id, seg, action);
    }

    fn finish(&self, id: TripId, session: Session, completion: Completion) {
        self.stats.active_sessions.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
        self.deliver_outcome(id, session, completion);
    }

    /// Like [`ShardCtx::finish`] for a session that was never admitted to
    /// the `active_sessions` gauge — the restore early-out paths, which
    /// retire a record without it ever becoming live. Keeping the gauge
    /// untouched here means it never transiently overshoots the number of
    /// sessions actually in a store.
    fn finish_detached(&self, id: TripId, session: Session, completion: Completion) {
        self.deliver_outcome(id, session, completion);
    }

    fn deliver_outcome(&self, id: TripId, session: Session, completion: Completion) {
        if completion == Completion::Ended {
            FleetStats::bump(&self.stats.trips_completed);
        }
        if let Some(cb) = &self.on_complete {
            let state = session.state;
            cb(TripOutcome {
                id,
                completion,
                score: state.score(self.model.config().lambda),
                likelihood_nll: state.likelihood_nll(),
                scale_log_sum: state.scale_log_sum(),
                segments: state.len(),
            });
        }
    }
}

/// Per-shard tombstone log for the delta layer: `None` until the first
/// `Checkpoint` arms tracking, then the trip ids removed from the store
/// since the last capture. Removals of sessions born after the previous
/// capture are recorded too — replaying such a tombstone against a base
/// that never held the id is a no-op, so the over-approximation is safe.
pub(crate) type Tombstones = Option<Vec<TripId>>;

/// Records one removed session id when delta tracking is armed.
fn tombstone(removed: &mut Tombstones, id: TripId) {
    if let Some(log) = removed {
        log.push(id);
    }
}

/// One trip with segments queued in the current drain. While events are
/// admitted its state stays in the store and this holds an inert
/// placeholder; the waves take the state out, advance it, and hand it
/// back when the trip's queue runs dry. Being `AsMut<ScorerState>`, the
/// work list itself is the wave that [`CausalTad::step_wave`] advances.
struct WorkItem {
    id: TripId,
    state: ScorerState,
    /// The oldest not-yet-scored segment of the trip's run through
    /// [`DrainQueue::queued`] (NIL once it is empty).
    head: u32,
    /// The newest queued segment (NIL before the first).
    tail: u32,
}

impl AsMut<ScorerState> for WorkItem {
    fn as_mut(&mut self) -> &mut ScorerState {
        &mut self.state
    }
}

/// One queued segment and the next one of the same trip.
#[derive(Clone, Copy)]
struct Queued {
    seg: u32,
    next: u32,
}

/// The segments queued in one drain. Each trip with segments queued has
/// one work item, in first-admission order, and its segments are a linked
/// run through one arena that every trip shares; its session holds the
/// item's index (`Session::work`). Both lists are emptied by the drain
/// and keep their capacity, so a session owns no queue and a steady
/// stream allocates nothing per segment.
///
/// An item is valid only while its session still points at it: a trip
/// LRU-evicted inside the drain leaves its item behind, and if it is
/// started again its new session opens a new item.
#[derive(Default)]
struct DrainQueue {
    work: Vec<WorkItem>,
    queued: Vec<Queued>,
}

impl DrainQueue {
    /// Appends `seg` to the queue of trip `id`, whose session is `session`.
    fn push(&mut self, id: TripId, session: &mut Session, seg: u32) {
        assert!(self.queued.len() < NIL as usize, "a drain queues fewer than 2^32 - 1 segments");
        let at = self.queued.len() as u32;
        self.queued.push(Queued { seg, next: NIL });
        if session.work == NIL {
            session.work = self.work.len() as u32;
            self.work.push(WorkItem { id, state: ScorerState::default(), head: NIL, tail: NIL });
        }
        let item = &mut self.work[session.work as usize];
        match item.tail {
            NIL => item.head = at,
            tail => self.queued[tail as usize].next = at,
        }
        item.tail = at;
    }

    /// The newest segment queued for `session` in this drain.
    fn tail(&self, session: &Session) -> Option<u32> {
        let item = self.work.get(session.work as usize)?;
        (item.head != NIL).then(|| self.queued[item.tail as usize].seg)
    }

    /// Takes the oldest segment queued for `session`.
    fn pop_front(&mut self, session: &Session) -> Option<u32> {
        let item = self.work.get_mut(session.work as usize)?;
        let Queued { seg, next } = *self.queued.get(item.head as usize)?;
        item.head = next;
        if next == NIL {
            item.tail = NIL;
        }
        Some(seg)
    }

    /// Takes each valid item's state out of the store, dropping the items
    /// of trips evicted in this drain (their queued segments die with
    /// them) and clearing every session's work index. Every item left
    /// holds a segment: the one pop, a gap reset's, is followed by the
    /// admission of the jump target.
    fn take_states(&mut self, store: &mut SessionStore) {
        let mut index = 0;
        self.work.retain_mut(|item| {
            let at = index;
            index += 1;
            let Some(session) = store.get_mut(item.id).filter(|session| session.work == at) else {
                return false;
            };
            session.work = NIL;
            item.state = mem::take(&mut session.state);
            true
        });
    }
}

/// The lists [`process_batch`] fills and empties on every drain. The
/// worker owns them across drains, so a steady stream of micro-batches
/// allocates nothing for its bookkeeping however wide the batches are.
#[derive(Default)]
struct BatchScratch {
    /// The drain's queued segments and the trips they belong to.
    queue: DrainQueue,
    /// Trips whose `TripEnd` arrived in this drain.
    ended: Vec<TripId>,
    /// The segment each work item consumes in the current wave.
    wave_segs: Vec<u32>,
    /// What the current wave's step emitted per work item: its score and
    /// the segment's contribution.
    wave_steps: Vec<(f64, SegmentTrace)>,
    /// The current wave's scores, as the `on_score` callback gets them.
    wave_scores: Vec<ScoreUpdate>,
}

/// Worker entry point; returns when every sender is dropped and the queue
/// has been fully drained.
pub(crate) fn run_shard(ctx: ShardCtx, rx: Receiver<Ingest>) {
    let mut store = SessionStore::new(ctx.cfg.max_sessions_per_shard);
    let mut batch: Vec<Event> = Vec::with_capacity(ctx.cfg.max_batch);
    let mut scratch = BatchScratch::default();
    let sweep_every = sweep_interval(ctx.cfg.session_ttl);
    let mut last_sweep = Instant::now();
    let mut removed: Tombstones = None;

    loop {
        // A control message (snapshot/restore) breaks batching: everything
        // received ahead of it is processed first, then it is handled at
        // the resulting quiesce point.
        let mut control: Option<Ingest> = None;
        match rx.recv_timeout(sweep_every) {
            Ok(Ingest::One(ev)) => batch.push(ev),
            Ok(Ingest::Many(mut evs)) => batch.append(&mut evs),
            Ok(ctrl) => control = Some(ctrl),
            Err(RecvTimeoutError::Timeout) => {
                sweep(&ctx, &mut store, &mut removed, &mut last_sweep, sweep_every);
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
        while control.is_none() && batch.len() < ctx.cfg.max_batch {
            match rx.try_recv() {
                Ok(Ingest::One(ev)) => batch.push(ev),
                Ok(Ingest::Many(mut evs)) => batch.append(&mut evs),
                Ok(ctrl) => control = Some(ctrl),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
            }
        }
        process_batch(&ctx, &mut store, &mut removed, &mut batch, &mut scratch);
        // Replies go to the engine side, which may have given up waiting;
        // a dead reply channel is not the shard's problem.
        match control {
            Some(Ingest::Snapshot(reply)) => {
                let _ = reply.send(capture_sessions(&store));
            }
            Some(Ingest::Restore(records)) => {
                restore_sessions(&ctx, &mut store, &mut removed, records)
            }
            Some(Ingest::Flush(reply)) => {
                let _ = reply.send(());
            }
            Some(Ingest::Checkpoint(reply)) => {
                let records = capture_sessions(&store);
                store.for_each_lru_mut(|_, session| session.dirty = false);
                removed = Some(Vec::new());
                let _ = reply.send(records);
            }
            Some(Ingest::Delta(reply)) => {
                let _ = reply.send(capture_delta(&mut store, &mut removed));
            }
            Some(Ingest::Drain(reply)) => {
                let now = Instant::now();
                ctx.stats
                    .active_sessions
                    .fetch_sub(store.len() as u64, std::sync::atomic::Ordering::Relaxed);
                let mut records = Vec::with_capacity(store.len());
                while let Some((id, session)) = store.pop_lru() {
                    tombstone(&mut removed, id);
                    records.push(record_of(id, &session, now));
                }
                let _ = reply.send(records);
            }
            _ => {}
        }
        sweep(&ctx, &mut store, &mut removed, &mut last_sweep, sweep_every);
    }

    // Engine dropped: flush whatever is still live, oldest first, one
    // session at a time — each is freed before the next leaves the store.
    while let Some((id, session)) = store.pop_lru() {
        ctx.finish(id, session, Completion::Shutdown);
    }
}

/// Clones every live session into snapshot records, oldest first (so a
/// restore that re-inserts in order reproduces the recency list).
///
/// A capture runs between drains, when no segment is queued, so a
/// record's `pending` is the session's reorder hold buffer: the snapshot
/// format has no policy state, so held segments are conservatively
/// flushed in arrival order and scored at restore time (the same flush
/// `TripEnd` would perform). The dedup ring is likewise not captured — it
/// rebuilds empty on the restored engine.
fn capture_sessions(store: &SessionStore) -> Vec<SessionRecord> {
    let now = Instant::now();
    store.iter_lru().map(|(id, session)| record_of(id, session, now)).collect()
}

/// Clones one live session into its snapshot record (the shared capture
/// shape of `Snapshot`, `Checkpoint`, `Delta`, and `Drain`).
fn record_of(id: TripId, session: &Session, now: Instant) -> SessionRecord {
    SessionRecord {
        id,
        state: session.state.clone(),
        pending: session.held().collect(),
        ending: session.ending,
        idle_micros: now.saturating_duration_since(session.last_touch).as_micros() as u64,
    }
}

/// Incremental capture: clones every dirty session (clearing its dirty
/// bit) and takes the tombstone log. With tracking unarmed (no
/// `Checkpoint` yet) this degenerates to a full capture with no
/// tombstones — every session still carries its initial dirty bit — so
/// the reply is conservative, never wrong.
fn capture_delta(
    store: &mut SessionStore,
    removed: &mut Tombstones,
) -> (Vec<SessionRecord>, Vec<TripId>) {
    let now = Instant::now();
    let tombs = removed.as_mut().map(std::mem::take).unwrap_or_default();
    let mut records = Vec::new();
    store.for_each_lru_mut(|id, session| {
        if session.dirty {
            records.push(record_of(id, session, now));
            session.dirty = false;
        }
    });
    (records, tombs)
}

/// Seeds the store from snapshot records (validated against the model by
/// the engine builder). Records arrive oldest first; each is inserted at
/// the recency head, so the restored LRU order matches the captured one.
/// Sessions already idle past the TTL are evicted on arrival (the
/// captured engine would have swept them had it lived), and the remaining
/// `last_touch` values are kept monotonic even when an idle age is not
/// representable on this host's monotonic clock (e.g. restoring soon
/// after boot) — `sweep_ttl`'s stop-at-first-fresh walk depends on it.
fn restore_sessions(
    ctx: &ShardCtx,
    store: &mut SessionStore,
    removed: &mut Tombstones,
    records: Vec<SessionRecord>,
) {
    let now = Instant::now();
    let ttl = ctx.cfg.session_ttl;
    let mut newest: Option<Instant> = None;
    for rec in records {
        let SessionRecord { id, mut state, pending, ending, idle_micros } = rec;
        if store.contains(id) {
            ctx.quarantine(id, None, PolicyAction::QuarantinedDuplicateStart);
            continue;
        }
        // Segments that were pending at capture time would stall in the
        // store (only freshly touched trips drain their queues), so score
        // them now.
        for &seg in &pending {
            ctx.score_one(id, &mut state, seg);
        }
        FleetStats::bump(&ctx.stats.sessions_restored);
        let idle = Duration::from_micros(idle_micros);
        // The early-out paths below retire the record without it ever
        // entering the store, so they must not touch the
        // `active_sessions` gauge: bumping it first and letting
        // `finish()` undo the bump (the previous arrangement) left a
        // window in which a concurrent `stats()` read an inflated gauge —
        // and the restored-engine gauge drifted from "sessions actually
        // live" by exactly the in-flight early-outs.
        if ending {
            // Its TripEnd arrived before the capture; deliver immediately.
            ctx.finish_detached(id, Session::new(state, now), Completion::Ended);
            continue;
        }
        if idle > ttl {
            FleetStats::bump(&ctx.stats.evictions_ttl);
            ctx.finish_detached(id, Session::new(state, now), Completion::EvictedTtl);
            continue;
        }
        FleetStats::bump(&ctx.stats.active_sessions);
        // Oldest-first arrival means ages descend; `max(newest)` repairs
        // the order when a clamped (unrepresentable) age would otherwise
        // land a fresh-looking session at the tail.
        let mut last_touch = now.checked_sub(idle).unwrap_or(now);
        if let Some(prev) = newest {
            last_touch = last_touch.max(prev);
        }
        newest = Some(last_touch);
        if let Some((victim, evicted)) = store.insert(id, Session::new(state, last_touch)) {
            FleetStats::bump(&ctx.stats.evictions_lru);
            tombstone(removed, victim);
            ctx.finish(victim, evicted, Completion::EvictedLru);
        }
    }
}

fn sweep_interval(ttl: Duration) -> Duration {
    (ttl / 4).clamp(Duration::from_millis(10), Duration::from_secs(1))
}

fn sweep(
    ctx: &ShardCtx,
    store: &mut SessionStore,
    removed: &mut Tombstones,
    last_sweep: &mut Instant,
    every: Duration,
) {
    if last_sweep.elapsed() < every {
        return;
    }
    *last_sweep = Instant::now();
    for (id, session) in store.sweep_ttl(ctx.cfg.session_ttl, *last_sweep) {
        FleetStats::bump(&ctx.stats.evictions_ttl);
        tombstone(removed, id);
        ctx.finish(id, session, Completion::EvictedTtl);
    }
}

/// Applies one drained micro-batch of events: lifecycle bookkeeping first,
/// then the pending segments of every touched session in batched waves
/// (wave `k` scores the `k`-th queued segment of each touched trip, so
/// per-trip order is preserved while the model work is matrix-matrix).
fn process_batch(
    ctx: &ShardCtx,
    store: &mut SessionStore,
    removed: &mut Tombstones,
    batch: &mut Vec<Event>,
    scratch: &mut BatchScratch,
) {
    let BatchScratch { queue, ended, wave_segs, wave_steps, wave_scores } = scratch;
    let now = Instant::now();
    // Queue-depth accounting: observe the fleet-wide in-flight level with
    // this drain still counted, then retire the drained events from it.
    if !batch.is_empty() {
        ctx.metrics.queue_depth.record(ctx.metrics.inflight.get().max(0) as u64);
        ctx.metrics.inflight.add(-(batch.len() as i64));
    }
    let vocab = ctx.model.vocab() as u32;
    let policy_on = !ctx.cfg.policy.is_off();

    for ev in batch.drain(..) {
        match ev {
            Event::TripStart { id, source, dest, time_slot } => {
                if store.contains(id) {
                    ctx.quarantine(id, None, PolicyAction::QuarantinedDuplicateStart);
                    continue;
                }
                match ctx.model.start_state(source, dest, time_slot) {
                    Ok(state) => {
                        FleetStats::bump(&ctx.stats.trips_started);
                        FleetStats::bump(&ctx.stats.active_sessions);
                        if let Some((victim, session)) = store.insert(id, Session::new(state, now))
                        {
                            FleetStats::bump(&ctx.stats.evictions_lru);
                            tombstone(removed, victim);
                            ctx.finish(victim, session, Completion::EvictedLru);
                        }
                    }
                    Err(_) => ctx.quarantine(id, None, PolicyAction::QuarantinedBadStart),
                }
            }
            Event::Segment { id, seg } => {
                if seg >= vocab {
                    ctx.quarantine(id, Some(seg), PolicyAction::QuarantinedOutOfVocab);
                    continue;
                }
                // `touch` refreshes the TTL clock and recency in O(1); a
                // session marked `ending` is removed at the end of this
                // very batch, so the spurious reorder on the reject path
                // is unobservable.
                match store.touch(id, now) {
                    Some(session) if !session.ending => {
                        if policy_on {
                            policy_admit(ctx, id, session, seg, queue);
                        } else {
                            // The pre-policy fast path, byte-identical to
                            // an unpoliced engine.
                            queue.push(id, session, seg);
                        }
                    }
                    _ => ctx.quarantine(id, Some(seg), PolicyAction::QuarantinedUnknownTrip),
                }
            }
            Event::TripEnd { id } => match store.touch(id, now) {
                Some(session) if !session.ending => {
                    if policy_on {
                        flush_held(ctx, id, session, queue);
                    }
                    session.ending = true;
                    ended.push(id);
                }
                _ => ctx.quarantine(id, None, PolicyAction::QuarantinedUnknownTrip),
            },
        }
    }

    // Batched waves over the queued segments: take each queued trip's
    // state out of the store once, run every wave on the work list itself
    // (wave `k` = the `k`-th queued segment of each trip), and hand a
    // state back as soon as its trip's queue runs dry — the per-event cost
    // is one arena step, not repeated map lookups, and no per-wave list is
    // built.
    queue.take_states(store);
    let DrainQueue { work, queued } = queue;
    while !work.is_empty() {
        wave_segs.clear();
        wave_segs.extend(work.iter_mut().map(|item| {
            let Queued { seg, next } = queued[item.head as usize];
            item.head = next;
            seg
        }));
        let wave_started = Instant::now();
        wave_steps.clear();
        ctx.model.step_wave(work, wave_segs, |score, step| wave_steps.push((score, step)));
        // One relaxed record per wave, attributed to every segment it
        // scored: the per-segment cost of the latency histogram stays a
        // fraction of an atomic op at realistic widths.
        let wave_ns = wave_started.elapsed().as_nanos() as u64;
        ctx.metrics.score_latency_ns.record_n(wave_ns, work.len() as u64);
        ctx.metrics.batch_width.record(work.len() as u64);
        FleetStats::bump(&ctx.stats.batches);
        FleetStats::add(&ctx.stats.segments_scored, work.len() as u64);
        wave_scores.clear();
        wave_scores.extend(
            work.iter()
                .zip(wave_steps.iter())
                .map(|(item, &(score, step))| ctx.score_update(item.id, &item.state, score, step)),
        );
        ctx.deliver_scores(wave_scores);
        work.retain_mut(|item| {
            if item.head != NIL {
                return true;
            }
            let session = store.get_mut(item.id).expect("a queued trip stays in the store");
            session.state = mem::take(&mut item.state);
            false
        });
    }
    queued.clear();

    for id in ended.drain(..) {
        if let Some(session) = store.remove(id) {
            tombstone(removed, id);
            ctx.finish(id, session, Completion::Ended);
        }
    }
}

// ---- Ingest sanitization (`StreamPolicy`) -------------------------------
//
// These helpers run only when a policy knob is enabled (`policy_on` above);
// the default all-off configuration takes the fast path, byte-identical to
// an unpoliced engine. They operate strictly on the *admission* side —
// deciding which segments enter the drain's queue and in what order — so
// the scoring waves below them stay bit-exact, and because every ingest
// path (in-process, `tad-net`, `tad-router`) preserves per-trip arrival
// order, the same corrupted stream sanitizes identically everywhere.

/// True when `seg` chains onto the trip's admission tail: the segment most
/// recently admitted (queued or already scored), or vacuously for a trip
/// that has no tail yet (the first segment is fixed by the SD condition
/// and always admissible).
fn chains(ctx: &ShardCtx, queue: &DrainQueue, session: &Session, seg: u32) -> bool {
    match queue.tail(session).or(session.state.last_segment()) {
        None => true,
        Some(prev) => ctx.model.successors_of(prev).contains(&seg),
    }
}

/// Unconditional admission of one in-vocab segment into the drain's
/// queue, maintaining the dedup ring.
fn admit(ctx: &ShardCtx, id: TripId, session: &mut Session, seg: u32, queue: &mut DrainQueue) {
    queue.push(id, session, seg);
    let window = ctx.cfg.policy.dedup_window;
    if window > 0 {
        let dedup = &mut session.rings().dedup;
        dedup.push_back(seg);
        while dedup.len() > window {
            dedup.pop_front();
        }
    }
}

/// Admits a segment that does not chain onto the tail — an off-network
/// jump — under the configured [`GapPolicy`].
fn admit_gap(ctx: &ShardCtx, id: TripId, session: &mut Session, seg: u32, queue: &mut DrainQueue) {
    match ctx.cfg.policy.gap {
        GapPolicy::ScoreThrough => {
            ctx.metrics.gap_score_through.add(1);
            ctx.notify_policy(id, Some(seg), PolicyAction::GapScoredThrough);
            admit(ctx, id, session, seg, queue);
        }
        GapPolicy::Reset => {
            // Everything queued ahead must score against the pre-jump
            // context first, then the Markov predecessor is forgotten so
            // the jump target opens a fresh leg (charged like a first
            // segment).
            while let Some(queued) = queue.pop_front(session) {
                ctx.score_one(id, &mut session.state, queued);
            }
            session.state.reset_context();
            ctx.metrics.trip_resets.add(1);
            ctx.notify_policy(id, Some(seg), PolicyAction::TripReset);
            admit(ctx, id, session, seg, queue);
        }
    }
}

/// Re-admits every held segment that now chains onto the (moving) tail;
/// each admission may unlock the next.
fn drain_held(ctx: &ShardCtx, id: TripId, session: &mut Session, queue: &mut DrainQueue) {
    loop {
        let Some(pos) = session.held().position(|seg| chains(ctx, queue, session, seg)) else {
            return;
        };
        let seg = session.rings().held.remove(pos).expect("index in range");
        admit(ctx, id, session, seg, queue);
        ctx.metrics.reordered.add(1);
        ctx.notify_policy(id, Some(seg), PolicyAction::Reordered);
    }
}

/// `TripEnd` flushes the hold buffer in arrival order: chaining segments
/// are admitted plainly, the rest go through the gap policy. Each
/// admission moves the tail, so later held segments may chain after all.
fn flush_held(ctx: &ShardCtx, id: TripId, session: &mut Session, queue: &mut DrainQueue) {
    while let Some(seg) = session.policy.as_mut().and_then(|rings| rings.held.pop_front()) {
        ctx.metrics.reorder_flushed.add(1);
        ctx.notify_policy(id, Some(seg), PolicyAction::ReorderFlushed);
        if chains(ctx, queue, session, seg) {
            admit(ctx, id, session, seg, queue);
        } else {
            admit_gap(ctx, id, session, seg, queue);
        }
    }
}

/// The policy-aware admission pipeline for one in-vocab segment event:
/// dedup window first, then the order check against the admission tail,
/// with non-chaining segments held for reorder repair and true gaps
/// handled by the configured [`GapPolicy`].
fn policy_admit(
    ctx: &ShardCtx,
    id: TripId,
    session: &mut Session,
    seg: u32,
    queue: &mut DrainQueue,
) {
    let pol = &ctx.cfg.policy;
    if pol.dedup_window > 0 && session.policy.as_ref().is_some_and(|r| r.dedup.contains(&seg)) {
        ctx.metrics.dedup_dropped.add(1);
        ctx.notify_policy(id, Some(seg), PolicyAction::DedupDropped);
        return;
    }
    if chains(ctx, queue, session, seg) {
        admit(ctx, id, session, seg, queue);
        drain_held(ctx, id, session, queue);
        return;
    }
    if pol.reorder_window == 0 {
        admit_gap(ctx, id, session, seg, queue);
        return;
    }
    if session.held().count() < pol.reorder_window {
        session.rings().held.push_back(seg);
        return;
    }
    // Hold buffer full: the oldest held segment has outlived a whole
    // window without chaining — treat it as a genuine gap (which may
    // unlock the rest of the buffer), then retry the incoming segment
    // against the moved tail.
    let oldest = session.rings().held.pop_front().expect("window > 0 and buffer full");
    admit_gap(ctx, id, session, oldest, queue);
    drain_held(ctx, id, session, queue);
    if chains(ctx, queue, session, seg) {
        admit(ctx, id, session, seg, queue);
        drain_held(ctx, id, session, queue);
    } else {
        session.rings().held.push_back(seg);
    }
}
