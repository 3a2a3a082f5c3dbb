//! # tad-serve
//!
//! A concurrent fleet-scoring engine for the CausalTAD detector: the
//! serving layer that turns the paper's O(1) per-segment online scorer
//! into a system that handles **thousands of in-flight trips at once**.
//!
//! Ride-hailing telemetry arrives as one interleaved stream of events —
//! trip starts (the SD pair is the order), GPS-matched road segments, and
//! trip ends. [`FleetEngine`] ingests that stream through a bounded,
//! sharded queue:
//!
//! * **Sharding** — trips are routed by id hash to one of N shard workers;
//!   per-trip event order is preserved, shards run in parallel.
//! * **Micro-batched stepping** — each worker drains its queue in waves
//!   and advances every live session in the wave through
//!   [`causaltad::CausalTad::push_batch`]: the GRU step becomes
//!   matrix-matrix products over the whole cohort instead of per-session
//!   matrix-vector products, against the model's resident inference plan
//!   (the input-gate projection is a table row, the recurrent weight is
//!   packed once per model — one copy however many engines serve it).
//!   Scores are numerically identical to running each trip through its
//!   own [`causaltad::OnlineScorer`].
//! * **Session lifecycle** — live [`causaltad::ScorerState`]s are kept in
//!   a per-shard store with TTL sweeps for trips that went silent and an
//!   O(1) LRU cap bounding memory; completed and evicted trips are
//!   delivered to a completion callback with their final score, its two
//!   parts and their segment count. A session keeps no per-segment
//!   history: what each segment contributed goes out once, in its
//!   [`ScoreUpdate`].
//! * **Online delivery** — an optional `on_score` callback receives a
//!   [`ScoreUpdate`] for every scored segment, in per-trip order, right
//!   after the micro-batched step that consumed it — the per-segment
//!   streaming surface behind the paper's online-detection claim. The
//!   shard hands them over a wave at a time
//!   ([`FleetEngineBuilder::on_scores`], which is how the `tad-net`
//!   front-end encodes a wave's `Score` frames in one pass); `on_score`
//!   is the per-segment view of the same calls. [`FleetEngine::flush`] is the
//!   matching quiesce barrier: when it returns, every event submitted
//!   before it has been scored and its callbacks have run.
//! * **Session persistence** — [`FleetEngine::snapshot`] captures every
//!   live session into a versioned, checksummed [`FleetImage`] while the
//!   engine keeps serving; [`FleetEngine::restore`] seeds a fresh engine
//!   from one, and scoring resumes bit-identically to an uninterrupted
//!   run (warm restart).
//! * **Delta snapshots & live handoff** — [`FleetEngine::checkpoint`]
//!   arms per-session dirty tracking and [`FleetEngine::delta`] then
//!   captures only the churn since the last capture (log-structured
//!   [`FleetDelta`]s replayed by [`DeltaBase`]), so tight checkpoint
//!   intervals cost O(churn), not O(fleet);
//!   [`FleetEngine::drain_sessions`] / [`FleetEngine::restore_sessions`]
//!   move live sessions between *running* engines without firing
//!   completions — the primitives under `tad-router`'s failover and
//!   drain/handoff tier.
//! * **Ingest sanitization** — an optional per-session [`StreamPolicy`]
//!   (dedup window, bounded reorder repair, gap policy, malformed-event
//!   quarantine) sits strictly in front of the scoring path; with the
//!   default all-off policy the pipeline is byte-identical to an
//!   unpoliced engine. See the [`policy`](crate::StreamPolicy) types.
//! * **Observability** — [`FleetStats`] counts events, scored segments,
//!   active sessions, evictions, rejects, off-graph hits, batch sizes,
//!   and restored sessions; every policy action is counted under the
//!   `serve.*` metrics names and surfaced through an `on_policy`
//!   callback.
//!
//! ```no_run
//! use std::sync::Arc;
//! use tad_serve::{Event, FleetConfig, FleetEngine};
//! # let model: causaltad::CausalTad = unimplemented!();
//!
//! let engine = FleetEngine::builder(Arc::new(model))
//!     .config(FleetConfig::default())
//!     .on_complete(|outcome| println!("trip {} scored {:.2}", outcome.id, outcome.score))
//!     .build()
//!     .expect("model is trained");
//! engine.submit(Event::TripStart { id: 1, source: 0, dest: 9, time_slot: 3 }).unwrap();
//! engine.submit(Event::Segment { id: 1, seg: 0 }).unwrap();
//! engine.submit(Event::TripEnd { id: 1 }).unwrap();
//! let stats = engine.shutdown();
//! assert_eq!(stats.trips_completed, 1);
//! ```

#![deny(missing_docs)]

mod delta;
mod engine;
mod event;
mod policy;
mod queue;
#[doc(hidden)]
pub mod session; // exposed for tests/session_bytes.rs; not a stable API
mod shard;
mod snapshot;
mod stats;

pub use delta::{delta_from_bytes, delta_to_bytes, DeltaBase, DeltaChainError, FleetDelta};
pub use engine::{
    CohortOutcome, CompletionCallback, FleetConfig, FleetEngine, FleetEngineBuilder, ScoreCallback,
    ServeError, SubmitError,
};
pub use event::{Completion, Event, ScoreUpdate, TripId, TripOutcome};
pub use policy::{GapPolicy, PolicyAction, PolicyCallback, PolicyOutcome, StreamPolicy};
pub use snapshot::{
    image_from_bytes, image_to_bytes, FleetImage, SessionRecord, SnapshotCodecError, SnapshotError,
};
pub use stats::{FleetSnapshot, FleetStats};
