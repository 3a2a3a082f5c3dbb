//! Fleet-wide counters, updated lock-free by the shard workers and readable
//! at any time through [`FleetStats::snapshot`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tad_metrics::{Counter, Gauge, Histogram, Registry};

/// Handles into the engine's metrics [`Registry`], resolved once at build
/// time so shard workers and submitters record through cached `Arc`s and
/// never touch the registry lock on a per-event path.
#[derive(Clone)]
pub(crate) struct ServeMetrics {
    /// `serve.score_latency_ns`: wall time of the micro-batched model
    /// step that scored each segment, recorded once per segment.
    pub score_latency_ns: Arc<Histogram>,
    /// `serve.batch_width`: sessions advanced per model-step wave.
    pub batch_width: Arc<Histogram>,
    /// `serve.ingest_queue_depth`: in-flight submitted events observed at
    /// each micro-batch drain.
    pub queue_depth: Arc<Histogram>,
    /// `serve.ingest_inflight`: events submitted but not yet drained.
    pub inflight: Arc<Gauge>,
    /// `serve.dedup_dropped`: segments dropped by the dedup window.
    pub dedup_dropped: Arc<Counter>,
    /// `serve.reordered`: held segments re-admitted once the stream
    /// caught up.
    pub reordered: Arc<Counter>,
    /// `serve.reorder_flushed`: held segments flushed in arrival order by
    /// `TripEnd`.
    pub reorder_flushed: Arc<Counter>,
    /// `serve.gap_score_through`: off-network jumps admitted under
    /// [`crate::GapPolicy::ScoreThrough`]. Like `serve.dedup_dropped`, it
    /// equals the `PolicyNotice`s producers receive for it, through a
    /// router too (`tests/router.rs`,
    /// `policy_notices_fan_in_through_the_router_to_the_owner`).
    pub gap_score_through: Arc<Counter>,
    /// `serve.trip_resets`: off-network jumps that reset the trip's
    /// Markov context under [`crate::GapPolicy::Reset`].
    pub trip_resets: Arc<Counter>,
    /// `serve.quarantined`: malformed events rejected and classified
    /// (duplicate starts, unknown trips, out-of-vocab segments, bad SD
    /// pairs).
    pub quarantined: Arc<Counter>,
    /// `serve.dirty_sessions`: sessions captured into delta snapshots —
    /// the churn the delta layer's cost scales with.
    pub dirty_sessions: Arc<Counter>,
    /// `serve.delta_bytes`: encoded delta-snapshot bytes produced (vs the
    /// full-image bytes a plain snapshot would have cost).
    pub delta_bytes: Arc<Counter>,
    /// `serve.admission_shed`: new-trip events shed by the fleet-wide
    /// admission controller while above a watermark
    /// ([`crate::FleetConfig::admission_session_watermark`] /
    /// [`crate::FleetConfig::admission_queue_watermark`]).
    pub admission_shed: Arc<Counter>,
}

impl ServeMetrics {
    pub(crate) fn register(registry: &Registry) -> Self {
        ServeMetrics {
            score_latency_ns: registry.histogram("serve.score_latency_ns"),
            batch_width: registry.histogram("serve.batch_width"),
            queue_depth: registry.histogram("serve.ingest_queue_depth"),
            inflight: registry.gauge("serve.ingest_inflight"),
            dedup_dropped: registry.counter("serve.dedup_dropped"),
            reordered: registry.counter("serve.reordered"),
            reorder_flushed: registry.counter("serve.reorder_flushed"),
            gap_score_through: registry.counter("serve.gap_score_through"),
            trip_resets: registry.counter("serve.trip_resets"),
            quarantined: registry.counter("serve.quarantined"),
            dirty_sessions: registry.counter("serve.dirty_sessions"),
            delta_bytes: registry.counter("serve.delta_bytes"),
            admission_shed: registry.counter("serve.admission_shed"),
        }
    }
}

/// Live counters shared by every shard worker.
///
/// All counters are monotonically increasing except `active_sessions`,
/// which tracks the current number of live trips.
#[derive(Debug)]
pub struct FleetStats {
    started_at: Instant,
    pub(crate) events_ingested: AtomicU64,
    pub(crate) segments_scored: AtomicU64,
    pub(crate) trips_started: AtomicU64,
    pub(crate) trips_completed: AtomicU64,
    pub(crate) evictions_ttl: AtomicU64,
    pub(crate) evictions_lru: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) off_graph_hits: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) active_sessions: AtomicU64,
    pub(crate) sessions_restored: AtomicU64,
}

impl FleetStats {
    pub(crate) fn new() -> Self {
        FleetStats {
            started_at: Instant::now(),
            events_ingested: AtomicU64::new(0),
            segments_scored: AtomicU64::new(0),
            trips_started: AtomicU64::new(0),
            trips_completed: AtomicU64::new(0),
            evictions_ttl: AtomicU64::new(0),
            evictions_lru: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            off_graph_hits: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            active_sessions: AtomicU64::new(0),
            sessions_restored: AtomicU64::new(0),
        }
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> FleetSnapshot {
        let segments_scored = self.segments_scored.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let elapsed = self.started_at.elapsed().as_secs_f64();
        FleetSnapshot {
            events_ingested: self.events_ingested.load(Ordering::Relaxed),
            segments_scored,
            trips_started: self.trips_started.load(Ordering::Relaxed),
            trips_completed: self.trips_completed.load(Ordering::Relaxed),
            evictions_ttl: self.evictions_ttl.load(Ordering::Relaxed),
            evictions_lru: self.evictions_lru.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            off_graph_hits: self.off_graph_hits.load(Ordering::Relaxed),
            batches,
            active_sessions: self.active_sessions.load(Ordering::Relaxed),
            sessions_restored: self.sessions_restored.load(Ordering::Relaxed),
            uptime_secs: elapsed,
            events_per_sec: if elapsed > 0.0 {
                self.events_ingested.load(Ordering::Relaxed) as f64 / elapsed
            } else {
                0.0
            },
            mean_batch_size: if batches > 0 {
                segments_scored as f64 / batches as f64
            } else {
                0.0
            },
        }
    }
}

impl FleetSnapshot {
    /// Sums per-backend snapshots into one fleet-wide view: every counter
    /// adds up and the derived values are recomputed over the aggregate.
    ///
    /// **Uptime-merge semantics** (previously ambiguous, now pinned):
    /// `uptime_secs` is the *oldest* backend's uptime — the merged view
    /// reads as "what this fleet has done since its longest-lived member
    /// started". `events_per_sec` is recomputed as the aggregate
    /// `events_ingested` over that oldest uptime, **not** the sum of the
    /// per-backend rates: summing rates double-counts wall-clock whenever
    /// backends started at different times (a backend that joined a
    /// second ago would briefly inflate the fleet rate), whereas
    /// total-events-over-oldest-uptime is exact for same-age fleets and a
    /// conservative lower bound for staggered ones. `mean_batch_size` is
    /// likewise recomputed from the fleet-wide scored-segment and batch
    /// totals.
    ///
    /// This is how the `tad-router` tier answers a front-door `Flush`
    /// with one `Stats` frame covering every backend behind it. Merging
    /// an empty slice yields the all-zero snapshot.
    pub fn merged(parts: &[FleetSnapshot]) -> FleetSnapshot {
        let mut out = FleetSnapshot {
            events_ingested: 0,
            segments_scored: 0,
            trips_started: 0,
            trips_completed: 0,
            evictions_ttl: 0,
            evictions_lru: 0,
            rejected: 0,
            off_graph_hits: 0,
            batches: 0,
            active_sessions: 0,
            sessions_restored: 0,
            uptime_secs: 0.0,
            events_per_sec: 0.0,
            mean_batch_size: 0.0,
        };
        for p in parts {
            out.events_ingested += p.events_ingested;
            out.segments_scored += p.segments_scored;
            out.trips_started += p.trips_started;
            out.trips_completed += p.trips_completed;
            out.evictions_ttl += p.evictions_ttl;
            out.evictions_lru += p.evictions_lru;
            out.rejected += p.rejected;
            out.off_graph_hits += p.off_graph_hits;
            out.batches += p.batches;
            out.active_sessions += p.active_sessions;
            out.sessions_restored += p.sessions_restored;
            out.uptime_secs = out.uptime_secs.max(p.uptime_secs);
        }
        if out.uptime_secs > 0.0 {
            out.events_per_sec = out.events_ingested as f64 / out.uptime_secs;
        }
        if out.batches > 0 {
            out.mean_batch_size = out.segments_scored as f64 / out.batches as f64;
        }
        out
    }
}

/// Point-in-time view of the fleet counters.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSnapshot {
    /// Events accepted by `submit`/`try_submit`.
    pub events_ingested: u64,
    /// Segment events actually scored by a model step.
    pub segments_scored: u64,
    /// Trips accepted through a valid `TripStart` event.
    pub trips_started: u64,
    /// Trips that left through a `TripEnd` event.
    pub trips_completed: u64,
    /// Sessions evicted for idling past the TTL.
    pub evictions_ttl: u64,
    /// Sessions evicted by the per-shard LRU cap.
    pub evictions_lru: u64,
    /// Events dropped as invalid (unknown trip, duplicate start, bad
    /// segment or SD pair).
    pub rejected: u64,
    /// Scored segments that were not successors of the previous segment.
    pub off_graph_hits: u64,
    /// Micro-batched model steps executed.
    pub batches: u64,
    /// Currently live sessions across all shards.
    pub active_sessions: u64,
    /// Sessions seeded from a fleet snapshot at build time (warm restart).
    pub sessions_restored: u64,
    /// Seconds since the engine was built.
    pub uptime_secs: f64,
    /// Ingested events per second of engine uptime.
    pub events_per_sec: f64,
    /// Average scored segments per micro-batch.
    pub mean_batch_size: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_sums_counters_and_recomputes_rates() {
        let stats_a = FleetStats::new();
        FleetStats::add(&stats_a.segments_scored, 60);
        FleetStats::add(&stats_a.batches, 2);
        FleetStats::add(&stats_a.trips_completed, 3);
        let stats_b = FleetStats::new();
        FleetStats::add(&stats_b.segments_scored, 40);
        FleetStats::add(&stats_b.batches, 3);
        FleetStats::add(&stats_b.trips_completed, 4);
        let mut a = stats_a.snapshot();
        let mut b = stats_b.snapshot();
        a.uptime_secs = 7.0; // force a distinguishable "oldest backend"
        a.events_ingested = 30;
        b.uptime_secs = 2.0; // a younger backend with an inflated rate
        b.events_ingested = 40;
        b.events_per_sec = 20.0;
        let merged = FleetSnapshot::merged(&[a, b]);
        assert_eq!(merged.segments_scored, 100);
        assert_eq!(merged.batches, 5);
        assert_eq!(merged.trips_completed, 7);
        assert!((merged.mean_batch_size - 20.0).abs() < 1e-12);
        // Oldest backend wins the uptime; the fleet rate is recomputed as
        // aggregate events over that uptime, not the sum of rates (which
        // would read 20+ here).
        assert!((merged.uptime_secs - 7.0).abs() < 1e-12);
        assert!((merged.events_per_sec - 70.0 / 7.0).abs() < 1e-12);
        // Degenerate inputs stay well-defined.
        let empty = FleetSnapshot::merged(&[]);
        assert_eq!(empty.segments_scored, 0);
        assert_eq!(empty.mean_batch_size, 0.0);
        assert_eq!((empty.uptime_secs, empty.events_per_sec), (0.0, 0.0));
    }

    #[test]
    fn snapshot_derives_rates() {
        let stats = FleetStats::new();
        FleetStats::add(&stats.segments_scored, 100);
        FleetStats::add(&stats.batches, 4);
        FleetStats::bump(&stats.events_ingested);
        let snap = stats.snapshot();
        assert_eq!(snap.segments_scored, 100);
        assert_eq!(snap.batches, 4);
        assert!((snap.mean_batch_size - 25.0).abs() < 1e-12);
        assert!(snap.uptime_secs >= 0.0);
    }
}
